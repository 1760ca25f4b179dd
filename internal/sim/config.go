// Package sim executes the synchronous-round protocol of §II-A: in every
// round the message adversary picks E(t), every alive node broadcasts,
// Byzantine nodes emit per-receiver messages, and deliveries reach each
// receiver tagged with its local port. One deterministic Engine executes
// it, one receiver after another on the calling goroutine; Run overlaps a
// round's delivery with building the next round's graph when the
// adversary is oblivious and a core is idle, which changes no result
// bit.
package sim

import (
	"errors"
	"fmt"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// DefaultMaxRounds bounds runs whose configuration forgets to; protocols
// below their dynaDegree threshold legitimately never terminate, and the
// engine must not spin forever on them.
const DefaultMaxRounds = 100_000

// ErrConfig reports an invalid engine configuration.
var ErrConfig = errors.New("sim: invalid configuration")

// Observer receives state-transition callbacks during a run. Callbacks
// fire on the engine's goroutine; implementations must be fast and must
// not call back into the engine.
type Observer interface {
	// OnPhaseEnter fires when a node's phase changes from `from` to `to`
	// (to > from; a DAC jump can skip several phases at once — per
	// Definition 6 the skipped phases take the same value). value is the
	// node's state on entering phase `to`.
	OnPhaseEnter(node, from, to int, value float64, round int)
	// OnDecide fires once per node when it produces its output.
	OnDecide(node int, value float64, round int)
}

// Hooks is the single registration surface for everything that watches
// an execution. Each field is independently optional and nil-safe: the
// zero value observes nothing and costs nothing on the hot path.
//
// An Observer or a Recorder makes the delivery loop probe every
// delivery for phase changes. The Metrics sink deliberately does not:
// it taps the round from outside, so attaching it never changes which
// code path the engine selects and can never perturb results (pinned by
// the parity property tests). Per-round curves, such as the F1 range
// series, are Metrics sinks for that reason.
type Hooks struct {
	// Observer receives phase/decide callbacks.
	Observer Observer
	// Recorder receives the execution event log.
	Recorder *trace.Recorder
	// Metrics receives one RoundSample per round, at the end of the
	// round: its counters and the running nodes' count and value range.
	Metrics metrics.Sink
}

// Config describes one execution.
type Config struct {
	// N is the network size; F the declared fault bound (used only for
	// validation and diagnostics — algorithms receive their own copy).
	N int
	F int

	// Procs holds the state machine of every non-Byzantine node,
	// indexed by node ID. Entries at Byzantine indices must be nil and
	// vice versa. Reset drives them through core.PerNode;
	// ResetPopulation through a population over the same nodes.
	Procs []core.Process

	// Byzantine maps node IDs to their behavior. Byzantine nodes have no
	// Process; they exist only as message sources.
	Byzantine map[int]fault.Strategy

	// Crashes schedules crash faults (crash model only; a node may not
	// be both Byzantine and crash-scheduled).
	Crashes fault.Schedule

	// Adversary picks E(t) each round. Required.
	Adversary adversary.Adversary

	// Ports holds each node's local numbering; nil defaults to identity
	// numberings. The correctness of the algorithms must be independent
	// of this choice (asserted by tests).
	Ports network.Ports

	// MaxRounds caps the run; 0 means DefaultMaxRounds.
	MaxRounds int

	// Hooks registers everything that watches the execution: observer,
	// recorder, and metrics sink. See Hooks.
	Hooks Hooks

	// AccountBandwidth enables wire-format byte accounting for delivered
	// messages (experiment E8); it costs an encode-size pass per
	// delivery.
	AccountBandwidth bool

	// MaxMessageBytes, when > 0, enforces a uniform per-link bandwidth
	// budget: a message whose wire encoding exceeds the cap is dropped
	// by the link and counted in Result.MessagesOversized. This models
	// the §VII remark on bandwidth-constrained links: plain DAC/DBAC
	// messages always fit, history-carrying ones (FullInfo, large
	// piggyback windows) may not (experiment E11).
	MaxMessageBytes int

	// ShuffleDelivery randomizes the order in which each receiver
	// processes one round's deliveries (default: ascending port). The
	// permutation is a deterministic function of ShuffleSeed, the round
	// and the receiver, so runs remain reproducible. The model leaves
	// intra-round arrival order unspecified; correctness must not
	// depend on it (asserted by the order-insensitivity tests).
	ShuffleDelivery bool
	// ShuffleSeed seeds the delivery permutations.
	ShuffleSeed int64

	// KeepTrace retains the per-round edge sets in the Result for
	// offline dynaDegree verification.
	KeepTrace bool

	// ForceCSR forces the engine-owned per-round edge scratch into the
	// sparse CSR representation regardless of N (the default switches at
	// network.SparseThreshold). Representation never affects results —
	// the equivalence property tests flip this flag to prove it.
	ForceCSR bool
}

// validate checks the configuration's invariants and returns the
// effective MaxRounds.
func (c *Config) validate() (int, error) {
	if c.N < 1 {
		return 0, fmt.Errorf("%w: n=%d", ErrConfig, c.N)
	}
	if c.Adversary == nil {
		return 0, fmt.Errorf("%w: nil adversary", ErrConfig)
	}
	if len(c.Procs) != c.N {
		return 0, fmt.Errorf("%w: %d procs for n=%d", ErrConfig, len(c.Procs), c.N)
	}
	for i, p := range c.Procs {
		_, byz := c.Byzantine[i]
		if byz && p != nil {
			return 0, fmt.Errorf("%w: node %d is Byzantine but has a Process", ErrConfig, i)
		}
		if !byz && p == nil {
			return 0, fmt.Errorf("%w: node %d has no Process and is not Byzantine", ErrConfig, i)
		}
	}
	for i := range c.Byzantine {
		if i < 0 || i >= c.N {
			return 0, fmt.Errorf("%w: Byzantine node %d out of range", ErrConfig, i)
		}
		if _, crash := c.Crashes[i]; crash {
			return 0, fmt.Errorf("%w: node %d is both Byzantine and crash-scheduled", ErrConfig, i)
		}
	}
	if c.Crashes != nil {
		if err := c.Crashes.Validate(c.N, len(c.Crashes)); err != nil {
			return 0, err
		}
	}
	if len(c.Byzantine)+len(c.Crashes) > c.F && c.F > 0 {
		return 0, fmt.Errorf("%w: %d faulty nodes exceed f=%d", ErrConfig,
			len(c.Byzantine)+len(c.Crashes), c.F)
	}
	// Run stops once every fault-free node has decided, which an empty
	// set has from round 0: such a run would play no round at all. The
	// two fault sets are disjoint and in range, checked above.
	if len(c.Byzantine)+len(c.Crashes) == c.N {
		return 0, fmt.Errorf("%w: no fault-free node among n=%d", ErrConfig, c.N)
	}
	if c.Ports != nil && len(c.Ports) != c.N {
		return 0, fmt.Errorf("%w: %d port numberings for n=%d", ErrConfig, len(c.Ports), c.N)
	}
	max := c.MaxRounds
	if max <= 0 {
		max = DefaultMaxRounds
	}
	return max, nil
}

// shuffleDeliveries permutes one receiver's round deliveries with a
// permutation derived deterministically from (seed, round, node): a
// Fisher–Yates walk over a splitmix64 stream, so the engine's hot loop
// pays no RNG allocation.
func shuffleDeliveries(ds []core.Delivery, seed int64, round, node int) {
	if len(ds) < 2 {
		return
	}
	// splitmix-style stream selector so nearby (round, node) pairs get
	// unrelated permutations.
	z := uint64(seed) ^ (uint64(round)+1)*0x9e3779b97f4a7c15 ^ (uint64(node)+1)*0xbf58476d1ce4e5b9
	for i := len(ds) - 1; i > 0; i-- {
		z += 0x9e3779b97f4a7c15
		x := z
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		j := int(x % uint64(i+1))
		ds[i], ds[j] = ds[j], ds[i]
	}
}

// FaultFree lists the nodes that are neither Byzantine nor
// crash-scheduled, in ascending order — the set H whose outputs the
// consensus properties constrain.
func (c *Config) FaultFree() []int {
	ff := make([]int, 0, c.N) // one allocation per run, not one per doubling
	for i := 0; i < c.N; i++ {
		if _, byz := c.Byzantine[i]; byz {
			continue
		}
		if _, crash := c.Crashes[i]; crash {
			continue
		}
		ff = append(ff, i)
	}
	return ff
}
