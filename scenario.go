package anondyn

import (
	"errors"
	"fmt"
	"math/rand"

	"anondyn/internal/baseline"
	"anondyn/internal/core"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/rng"
	"anondyn/internal/sim"
)

// ErrScenario reports an invalid Scenario.
var ErrScenario = errors.New("anondyn: invalid scenario")

// Scenario describes one execution: the algorithm and its parameters,
// the inputs, the message adversary, and the fault pattern. The zero
// value is not runnable; fill in at least N, Eps, Algorithm, Inputs and
// Adversary.
type Scenario struct {
	// N is the network size; F the fault bound the algorithm is
	// configured for (DBAC needs it; DAC/crash scenarios use it for
	// validation).
	N int
	F int
	// Eps is the ε of ε-agreement.
	Eps float64
	// Algorithm picks the protocol every non-Byzantine node runs.
	Algorithm Algo

	// PiggybackWindow is K for AlgoDBACPiggyback.
	PiggybackWindow int
	// MegaT is the block length T for AlgoMegaRound.
	MegaT int

	// PEndOverride, when > 0, replaces the paper-derived output phase
	// (Equation 2 for DAC-family, Equation 6 for DBAC-family). The
	// Equation 6 bound grows like 2ⁿ·ln(1/ε); measurement runs on larger
	// n set an explicit budget instead and verify the achieved range.
	PEndOverride int
	// QuorumOverride, when > 0, replaces the algorithm's quorum. This
	// models the hypothetical below-threshold algorithms of the
	// necessity proofs (Theorems 9/10) and skips resilience validation.
	// Never set it when you want a correct protocol.
	QuorumOverride int
	// Unchecked skips the n-vs-f resilience validation (necessity
	// experiments run deliberately out-of-bounds configurations).
	Unchecked bool

	// Inputs holds every node's initial value in [0,1]; entries at
	// Byzantine indices are ignored.
	Inputs []float64

	// Adversary picks E(t) each round.
	Adversary Adversary
	// Crashes schedules crash faults by node.
	Crashes map[int]Crash
	// Byzantine assigns strategies to Byzantine nodes.
	Byzantine map[int]Strategy

	// MaxRounds caps the run (0 = engine default).
	MaxRounds int

	// RandomPorts draws an independent random port numbering per node
	// from Seed; otherwise every node uses the identity numbering.
	RandomPorts bool
	Seed        int64

	// ShuffleDelivery randomizes intra-round delivery order per
	// receiver (deterministically from Seed); the default is ascending
	// port order. Correctness never depends on the choice.
	ShuffleDelivery bool

	// ForceCSR forces the engine's per-round edge scratch into the
	// sparse CSR representation below the automatic size threshold;
	// results are bit-for-bit identical. See sim.Config.ForceCSR.
	ForceCSR bool

	// Metrics, when non-nil, receives one sample per round from the
	// engine (see sim.Hooks.Metrics). Attaching it never changes results
	// or engine code paths — pinned by the metrics-parity property
	// tests — so a shared metrics.Collector can watch a whole batch live.
	Metrics MetricsSink

	// Tracker, when non-nil, reconstructs the V(p) multisets during the
	// run (it is seeded with the inputs automatically).
	Tracker *PhaseTracker
	// Series, when non-nil, records the per-round range of running
	// nodes' values — the round-resolution convergence curve (figure
	// F1). It joins Metrics as a second sink, so like Metrics it never
	// changes results or engine code paths.
	Series *RangeSeries
	// Recorder, when non-nil, captures the execution event log.
	Recorder *Recorder
	// KeepTrace retains E(t) per round in the Result.
	KeepTrace bool
	// AccountBandwidth tallies delivered wire bytes in the Result.
	AccountBandwidth bool
	// MaxMessageBytes, when > 0, drops any message whose wire encoding
	// exceeds the per-link bandwidth budget (§VII; experiment E11).
	MaxMessageBytes int
}

// Run executes the scenario and returns its result.
func (s Scenario) Run() (*Result, error) {
	return (&engineBox{}).run(s)
}

// engineBox carries a recyclable engine and the last run's processes
// between runs. The batch harness gives every worker one box, so a
// thousand-seed batch builds the engine's views and scratch — and, while
// consecutive runs share a shape, the processes — once per worker
// instead of once per seed.
type engineBox struct {
	eng *sim.Engine
	// procs are the last run's processes and pop the population that
	// drives them, kept only when its ports were fixed; key is the shape
	// they were built for. Byzantine slots are nil.
	procs []core.Process
	pop   core.Population
	key   procKey
}

// procKey is every Scenario field newProc and newDACs read besides the
// inputs and the Byzantine set: two fixed-port runs with equal keys and
// the same Byzantine set build processes that differ only in their inputs.
type procKey struct {
	n, f, piggybackWindow, megaT, pEndOverride, quorumOverride int
	eps                                                        float64
	algorithm                                                  Algo
	unchecked                                                  bool
}

func (s Scenario) procKey() procKey {
	return procKey{
		n: s.N, f: s.F, piggybackWindow: s.PiggybackWindow, megaT: s.MegaT,
		pEndOverride: s.PEndOverride, quorumOverride: s.QuorumOverride,
		eps: s.Eps, algorithm: s.Algorithm, unchecked: s.Unchecked,
	}
}

// run is the one execution path from a Scenario to a Result: it
// validates s, resolves its processes and ports, and executes it on the
// box's engine, recycling the engine when one is already there (a Reset
// engine is indistinguishable from a fresh one — asserted by the
// recycle tests).
func (box *engineBox) run(s Scenario) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	ports := s.ports()
	procs, pop, err := box.procsFor(s, ports)
	if err != nil {
		return nil, err
	}
	f := s.F
	if f == 0 {
		f = len(s.Byzantine) + len(s.Crashes) // pass validation for f-unset scenarios
	}
	// The series is a metrics sink: it taps the round without changing
	// the delivery path (guarded, so that a typed-nil series is no sink).
	sink := s.Metrics
	if s.Series != nil {
		sink = metrics.Tee(s.Series, s.Metrics)
	}
	cfg := sim.Config{
		N:         s.N,
		F:         f,
		Procs:     procs,
		Byzantine: s.Byzantine,
		Crashes:   s.Crashes,
		Adversary: s.Adversary,
		Ports:     ports,
		MaxRounds: s.MaxRounds,
		Hooks: sim.Hooks{
			Observer: s.observer(),
			Recorder: s.Recorder,
			Metrics:  sink,
		},
		KeepTrace:        s.KeepTrace,
		AccountBandwidth: s.AccountBandwidth,
		MaxMessageBytes:  s.MaxMessageBytes,
		ShuffleDelivery:  s.ShuffleDelivery,
		ShuffleSeed:      s.Seed,
		ForceCSR:         s.ForceCSR,
	}
	if box.eng == nil {
		box.eng = new(sim.Engine)
	}
	if err := box.eng.ResetPopulation(cfg, pop); err != nil {
		return nil, err
	}
	return box.eng.Run(), nil
}

// procsFor returns the processes for one run of s and the population
// the engine drives them through: the box's own, reinitialized in place
// with s.Inputs, when s has their shape (fixed ports, same procKey, same
// Byzantine set); freshly built ones otherwise, which the box keeps for
// the next run when their ports are fixed. A DAC-family run's nodes are
// one core.PopulationOf, a DBAC run's one core.DBACPopulationOf; every
// other algorithm runs core.PerNode.
func (box *engineBox) procsFor(s Scenario, ports network.Ports) ([]core.Process, core.Population, error) {
	key := s.procKey()
	if ports == nil && box.procs != nil && box.key == key && box.sameByzantine(s.Byzantine) {
		for i, p := range box.procs {
			if p == nil {
				continue
			}
			box.pop.Reinit(i, s.Inputs[i]) // validate checked the input
			if s.Tracker != nil {
				s.Tracker.SetInput(i, s.Inputs[i])
			}
		}
		return box.procs, box.pop, nil
	}
	selfPort := func(i int) int { return i }
	if ports != nil {
		selfPort = func(i int) int { return ports[i].Port(i) }
	}
	procs := make([]core.Process, s.N)
	var pop core.Population
	switch s.Algorithm {
	case AlgoDAC, AlgoDACNoJump:
		dacs, err := s.newDACs(selfPort)
		if err != nil {
			return nil, nil, err
		}
		for i := range procs {
			if _, isByz := s.Byzantine[i]; !isByz {
				procs[i] = &dacs[i]
			}
		}
		pop = core.PopulationOf(dacs)
	case AlgoDBAC:
		dbacs, err := s.newDBACs(selfPort)
		if err != nil {
			return nil, nil, err
		}
		for i := range procs {
			if _, isByz := s.Byzantine[i]; !isByz {
				procs[i] = &dbacs[i]
			}
		}
		pop = core.DBACPopulationOf(dbacs)
	default:
		for i := range procs {
			if _, isByz := s.Byzantine[i]; isByz {
				continue
			}
			p, err := s.newProc(i, selfPort(i))
			if err != nil {
				return nil, nil, fmt.Errorf("node %d: %w", i, err)
			}
			procs[i] = p
		}
		pop = core.PerNode(procs)
	}
	if s.Tracker != nil {
		for i, p := range procs {
			if p != nil {
				s.Tracker.SetInput(i, s.Inputs[i])
			}
		}
	}
	box.procs, box.pop, box.key = nil, nil, key
	if ports == nil {
		box.procs, box.pop = procs, pop
	}
	return procs, pop, nil
}

// sameByzantine reports whether byz names exactly the nil slots of the
// box's processes, i.e. the Byzantine set they were built around.
func (box *engineBox) sameByzantine(byz map[int]Strategy) bool {
	nils := 0
	for _, p := range box.procs {
		if p == nil {
			nils++
		}
	}
	if nils != len(byz) {
		return false
	}
	for i := range byz {
		if i < 0 || i >= len(box.procs) || box.procs[i] != nil {
			return false
		}
	}
	return true
}

// validate checks the scenario's static structure.
func (s Scenario) validate() error {
	if s.N < 1 {
		return fmt.Errorf("%w: n=%d", ErrScenario, s.N)
	}
	if len(s.Inputs) != s.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrScenario, len(s.Inputs), s.N)
	}
	if s.Adversary == nil {
		return fmt.Errorf("%w: nil adversary", ErrScenario)
	}
	if s.Algorithm == 0 {
		return fmt.Errorf("%w: no algorithm selected", ErrScenario)
	}
	if s.Eps == 0 && s.PEndOverride <= 0 && s.Algorithm != AlgoFloodMin {
		return fmt.Errorf("%w: neither Eps nor PEndOverride set", ErrScenario)
	}
	// The constructors check inputs too; checking here first means a
	// recycled process's Reinit rejects exactly what a fresh build would.
	for i, in := range s.Inputs {
		if _, isByz := s.Byzantine[i]; isByz {
			continue
		}
		err := core.ValidateInput(in)
		if err == nil && s.Algorithm == AlgoFloodMin {
			err = baseline.ValidateFloodMinInput(in)
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	if !s.Unchecked && s.QuorumOverride == 0 {
		switch s.Algorithm {
		case AlgoDAC, AlgoDACNoJump, AlgoMegaRound, AlgoFullInfo, AlgoReliableIterated:
			if err := core.ValidateCrash(s.N, s.F); err != nil {
				return err
			}
		case AlgoDBAC, AlgoDBACPiggyback:
			if err := core.ValidateByz(s.N, s.F); err != nil {
				return err
			}
		}
	}
	return nil
}

// ports resolves the run's port numberings: nil — the engine's identity
// numbering, under which node i's self port is i — unless RandomPorts
// draws an independent numbering per node from Seed.
func (s Scenario) ports() network.Ports {
	if !s.RandomPorts {
		return nil
	}
	return network.RandomPorts(s.N, rand.New(rng.New(s.Seed)))
}

// observer returns the engine Observer: the Tracker, or nil (never a
// typed-nil interface, which would turn on the per-delivery probes).
func (s Scenario) observer() sim.Observer {
	if s.Tracker == nil {
		return nil
	}
	return s.Tracker
}

// newDACs builds a DAC-family run's nodes as one population (see
// core.NewDACPopulation): output phase PEndOverride or the one ε gives,
// quorum QuorumOverride or the paper's core.CrashQuorum, and the
// jump-rule ablation for AlgoDACNoJump. AlgoDAC checks ε as core.NewDAC
// checks it, unless Unchecked, PEndOverride or QuorumOverride is set.
// Byzantine slots are left unbuilt.
func (s Scenario) newDACs(selfPort func(int) int) ([]core.DAC, error) {
	pEnd, quorum := s.pEndDAC(), core.CrashQuorum(s.N)
	skip := func(i int) bool { _, isByz := s.Byzantine[i]; return isByz }
	if s.Algorithm == AlgoDAC {
		switch {
		case s.QuorumOverride > 0:
			quorum = s.QuorumOverride
		case s.Unchecked, s.PEndOverride > 0:
			// The paper quorum, ε unchecked: the below-threshold
			// configurations and an explicit output phase.
		default:
			// NewDAC derives pEnd from ε, so it checks ε — before anything
			// else, at the first node it builds.
			if err := core.ValidateEpsilon(s.Eps); err != nil {
				for i := range s.Inputs {
					if !skip(i) {
						return nil, fmt.Errorf("node %d: %w", i, err)
					}
				}
			}
		}
	}
	return core.NewDACPopulation(pEnd, quorum, s.Algorithm == AlgoDACNoJump, selfPort, s.Inputs, skip)
}

// newDBACs builds a DBAC run's nodes as one population (see
// core.NewDBACPopulation), with the output phase and quorum the per-node
// constructors would take: PEndOverride or the one ε gives, and
// QuorumOverride or the paper's core.ByzQuorum. AlgoDBAC checks ε as
// core.NewDBAC checks it — before anything else, at the first node it
// builds — unless Unchecked, PEndOverride or QuorumOverride is set
// (validate has checked n ≥ 5f+1 where the per-node constructors did).
// Byzantine slots are left unbuilt.
func (s Scenario) newDBACs(selfPort func(int) int) ([]core.DBAC, error) {
	skip := func(i int) bool { _, isByz := s.Byzantine[i]; return isByz }
	quorum := core.ByzQuorum(s.N, s.F)
	switch {
	case s.QuorumOverride > 0:
		quorum = s.QuorumOverride
	case s.Unchecked, s.PEndOverride > 0:
	default:
		if err := core.ValidateEpsilon(s.Eps); err != nil {
			for i := range s.Inputs {
				if !skip(i) {
					return nil, fmt.Errorf("node %d: %w", i, err)
				}
			}
		}
	}
	return core.NewDBACPopulation(s.F, s.pEndDBAC(), quorum, selfPort, s.Inputs, skip)
}

// newProc instantiates the selected algorithm for one node of a run
// outside the DAC family and DBAC (see newDACs, newDBACs).
func (s Scenario) newProc(i, selfPort int) (core.Process, error) {
	input := s.Inputs[i]
	switch s.Algorithm {
	case AlgoDBACPiggyback:
		if s.PEndOverride > 0 {
			return core.NewDBACPiggybackPhases(s.N, s.F, selfPort, s.PiggybackWindow, s.PEndOverride, input)
		}
		return core.NewDBACPiggyback(s.N, s.F, selfPort, s.PiggybackWindow, input, s.Eps)
	case AlgoMegaRound:
		t := s.MegaT
		if t == 0 {
			t = 1
		}
		return baseline.NewMegaRound(s.N, t, selfPort, input, s.Eps)
	case AlgoFullInfo:
		return baseline.NewFullInfo(s.N, selfPort, input, s.Eps)
	case AlgoReliableIterated:
		return baseline.NewReliableIterated(s.N, input, s.Eps)
	case AlgoBACReliable:
		return baseline.NewBACReliable(s.N, s.F, input, s.Eps)
	case AlgoFloodMin:
		rounds := s.PEndOverride
		if rounds <= 0 {
			rounds = s.N // ≥ f+1 for any admissible f
		}
		return baseline.NewFloodMin(rounds, input)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrScenario, int(s.Algorithm))
	}
}

// pEndDAC resolves the DAC-family output phase.
func (s Scenario) pEndDAC() int {
	if s.PEndOverride > 0 {
		return s.PEndOverride
	}
	return core.PEndDAC(s.Eps)
}

// pEndDBAC resolves the DBAC-family output phase.
func (s Scenario) pEndDBAC() int {
	if s.PEndOverride > 0 {
		return s.PEndOverride
	}
	return core.PEndDBAC(s.Eps, s.N)
}

// SpreadInputs returns n inputs evenly spread over [0,1]: 0, 1/(n−1), …,
// 1 — the canonical worst-ish-case spread used across the experiments.
func SpreadInputs(n int) []float64 {
	in := make([]float64, n)
	if n == 1 {
		return in
	}
	for i := range in {
		in[i] = float64(i) / float64(n-1)
	}
	return in
}

// SplitInputs returns n inputs where the first k are 0 and the rest 1 —
// the two-camp inputs of the impossibility constructions.
func SplitInputs(n, k int) []float64 {
	in := make([]float64, n)
	for i := k; i < n; i++ {
		in[i] = 1
	}
	return in
}

// RandomInputs returns n inputs drawn uniformly from [0,1]: the first n
// Float64 draws of math/rand's stream for seed, read from the stream's
// prefix without seeding a register (rng.Float64s). The slice is the
// only allocation.
func RandomInputs(n int, seed int64) []float64 {
	in := make([]float64, n)
	rng.Float64s(seed, in)
	return in
}

// PEndDAC re-exports Equation (2): the DAC output phase for ε.
func PEndDAC(eps float64) int { return core.PEndDAC(eps) }

// PEndDBAC re-exports Equation (6): the DBAC output phase bound for ε, n.
func PEndDBAC(eps float64, n int) int { return core.PEndDBAC(eps, n) }

// CrashDegree re-exports the DAC dynaDegree threshold ⌊n/2⌋.
func CrashDegree(n int) int { return core.CrashDegree(n) }

// ByzDegree re-exports the DBAC dynaDegree threshold ⌊(n+3f)/2⌋.
func ByzDegree(n, f int) int { return core.ByzDegree(n, f) }
