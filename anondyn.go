// Package anondyn is the public face of this reproduction of
// "Fault-tolerant Consensus in Anonymous Dynamic Network" (Zhang &
// Tseng, ICDCS 2024): approximate consensus among n anonymous nodes in
// synchronous rounds, under a dynamic message adversary that picks the
// reliable links E(t) every round, with up to f crash or Byzantine
// faults.
//
// The package wraps the internal building blocks behind a Scenario: pick
// an algorithm (the paper's DAC or DBAC, the §VII piggyback extension,
// or one of the prior-work baselines), an adversary, inputs, and faults,
// then Run it:
//
//	s := anondyn.Scenario{
//	    N: 7, F: 2, Eps: 1e-3,
//	    Algorithm: anondyn.AlgoDAC,
//	    Inputs:    anondyn.SpreadInputs(7),
//	    Adversary: anondyn.Rotating(3),
//	    Crashes:   map[int]anondyn.Crash{0: anondyn.CrashAt(4)},
//	}
//	res, err := s.Run()
//
// Results carry outputs, decision rounds, message accounting, and the
// property checks (validity, ε-agreement) of Definition 3.
package anondyn

import (
	"fmt"
	"io"
	"strings"

	"anondyn/internal/adversary"
	"anondyn/internal/analysis"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/sim"
	"anondyn/internal/trace"
)

// Algo selects the consensus algorithm a Scenario runs.
type Algo int

// Supported algorithms.
const (
	// AlgoDAC is Algorithm 1: crash-tolerant Dynamic Approximate
	// Consensus (n ≥ 2f+1, (T,⌊n/2⌋)-dynaDegree).
	AlgoDAC Algo = iota + 1
	// AlgoDBAC is Algorithm 2: Dynamic Byzantine Approximate Consensus
	// (n ≥ 5f+1, (T,⌊(n+3f)/2⌋)-dynaDegree).
	AlgoDBAC
	// AlgoDBACPiggyback is the §VII bandwidth/convergence trade-off
	// extension of DBAC with a bounded history window.
	AlgoDBACPiggyback
	// AlgoMegaRound is the strawman that knows T and batches T rounds
	// into one update (baseline).
	AlgoMegaRound
	// AlgoFullInfo is the §VII unlimited-bandwidth full-information
	// simulation (baseline).
	AlgoFullInfo
	// AlgoReliableIterated is classical reliable-channel iterated
	// averaging, Dolev et al. style (baseline; assumes no adversary).
	AlgoReliableIterated
	// AlgoBACReliable is reliable-channel Byzantine iterated averaging
	// (baseline; assumes no adversary).
	AlgoBACReliable
	// AlgoFloodMin is classical binary EXACT consensus by minimum
	// flooding — used by the Corollary 1 experiment (E9) to show exact
	// consensus failing where approximate consensus survives.
	AlgoFloodMin
	// AlgoDACNoJump is the ablation of DAC without the jump rule
	// (Algorithm 1 lines 5–8 removed) — used by experiment E12 to show
	// why adopting future states is essential under message loss.
	AlgoDACNoJump
)

// String names the algorithm for tables and logs.
func (a Algo) String() string {
	switch a {
	case AlgoDAC:
		return "DAC"
	case AlgoDBAC:
		return "DBAC"
	case AlgoDBACPiggyback:
		return "DBAC+pb"
	case AlgoMegaRound:
		return "MegaRound"
	case AlgoFullInfo:
		return "FullInfo"
	case AlgoReliableIterated:
		return "RelIter"
	case AlgoBACReliable:
		return "BACRel"
	case AlgoFloodMin:
		return "FloodMin"
	case AlgoDACNoJump:
		return "DAC-nojump"
	default:
		return "unknown"
	}
}

// ParseAlgo resolves the CLI spelling of an algorithm name (dac, dbac,
// dbac-pb, megaround, fullinfo, reliter, bacrel, floodmin, dac-nojump),
// case-insensitively.
func ParseAlgo(name string) (Algo, error) {
	switch strings.ToLower(name) {
	case "dac":
		return AlgoDAC, nil
	case "dbac":
		return AlgoDBAC, nil
	case "dbac-pb":
		return AlgoDBACPiggyback, nil
	case "megaround":
		return AlgoMegaRound, nil
	case "fullinfo":
		return AlgoFullInfo, nil
	case "reliter":
		return AlgoReliableIterated, nil
	case "bacrel":
		return AlgoBACReliable, nil
	case "floodmin":
		return AlgoFloodMin, nil
	case "dac-nojump":
		return AlgoDACNoJump, nil
	default:
		return 0, fmt.Errorf("anondyn: unknown algorithm %q", name)
	}
}

// Re-exported building-block types. The aliases let callers hold and
// construct these values through the public package; the implementations
// live in internal packages.
type (
	// Adversary chooses the reliable link set E(t) each round.
	Adversary = adversary.Adversary
	// InPlaceAdversary is the optional zero-allocation fast path: the
	// engine hands adversaries implementing it an engine-owned scratch
	// EdgeSet to overwrite instead of allocating one per round. Every
	// per-round-allocating adversary in this package implements it
	// (fixed-graph ones return prebuilt sets by pointer instead, which
	// is cheaper still); plain Adversary implementations keep working
	// via the fallback path.
	InPlaceAdversary = adversary.InPlace
	// AdversaryReseeder is implemented by randomized adversaries whose
	// stream CompiledScenario.Run rewinds per seed, letting one
	// instance serve a whole Monte-Carlo batch reproducibly.
	AdversaryReseeder = adversary.Reseeder
	// Crash schedules one node's crash fault.
	Crash = fault.Crash
	// Strategy drives one Byzantine node.
	Strategy = fault.Strategy
	// Result summarizes an execution.
	Result = sim.Result
	// PhaseTracker reconstructs the paper's V(p) multisets from a run.
	PhaseTracker = analysis.PhaseTracker
	// RangeSeries records the per-round convergence curve: the Range of
	// each round's metrics sample.
	RangeSeries = analysis.RangeSeries
	// Recorder captures the execution event log.
	Recorder = trace.Recorder
	// Event is one entry of a recorded execution log.
	Event = trace.Event
	// EdgeSet is one round's directed communication graph.
	EdgeSet = network.EdgeSet
	// Trace is a finite dynamic-graph prefix, E(0), E(1), ….
	Trace = network.Trace
	// MetricsSink receives live metrics emissions (one sample per engine
	// round, one per completed batch run). Pass as Scenario.Metrics or
	// BatchOptions.Metrics; attaching a sink never changes results.
	MetricsSink = metrics.Sink
)

// Crash-fault constructors (re-exports).
var (
	// CrashAt schedules a clean crash at the end of the given round.
	CrashAt = fault.CrashAt
	// CrashSilent schedules a crash that suppresses the final broadcast.
	CrashSilent = fault.CrashSilent
	// CrashPartial schedules a crash whose final broadcast reaches only
	// the listed receivers.
	CrashPartial = fault.CrashPartial
)

// NewPhaseTracker returns a tracker to pass as Scenario.Tracker.
func NewPhaseTracker() *PhaseTracker { return analysis.NewPhaseTracker() }

// NewRangeSeries returns a per-round convergence recorder to pass as
// Scenario.Series, which tees it onto the run's metrics sink. It records
// one run at a time.
func NewRangeSeries() *RangeSeries { return analysis.NewRangeSeries() }

// NewRecorder returns an event recorder to pass as Scenario.Recorder.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// Replay wraps a recorded execution's edge sets as an adversary: re-run
// the same deterministic algorithm with the same inputs and ports
// against it and the execution reproduces exactly — including
// executions originally driven by adaptive or randomized adversaries.
func Replay(n int, rec *Recorder) (Adversary, error) {
	return trace.NewReplay(n, rec.Events())
}

// ReplayEvents is Replay for a deserialized event log (see WriteTrace /
// ReadTrace).
func ReplayEvents(n int, events []Event) (Adversary, error) {
	return trace.NewReplay(n, events)
}

// WriteTrace serializes a recorded event log as JSON Lines.
func WriteTrace(w io.Writer, rec *Recorder) error {
	return trace.WriteJSONL(w, rec.Events())
}

// ReadTrace parses a JSON Lines event log.
func ReadTrace(r io.Reader) ([]Event, error) { return trace.ReadJSONL(r) }
