// Package experiments implements the reproduction harness: one function
// per experiment (E1–E13 and F1), each regenerating the table dyna
// tables -exp Ek prints and the package's TestEkShape test pins. The
// functions are deterministic (fixed seeds) and are shared by dyna
// tables and the root benchmark suite.
//
// The paper is a theory paper — each experiment operationalizes one of
// its quantitative claims (convergence rates, resilience and dynaDegree
// thresholds, worst-case round counts, the §VII bandwidth trade-off) on
// the simulated anonymous dynamic network. Every experiment's cell
// matrix is a committed spec file under examples/specs (a table whose
// rows cross axes one spec cannot hold interleaves several), compiled
// to an anondyn.Grid and executed on the batch worker pool; the Go side
// only attaches per-run collectors and the knobs no spec key expresses
// (hook), labels the rows and renders the tables.
package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/analysis"
)

// Registry maps experiment IDs to their runners, in presentation order:
// E1–E8 cover the paper's theorems, E9–E13 its Corollary 1 and the §VII
// open problems, and F1 the convergence curves behind E1 and E5.
func Registry() []Experiment {
	core := []Experiment{
		{"E1", "DAC convergence rate and rounds (Theorem 3)", E1DACConvergence},
		{"E2", "Crash dynaDegree necessity (Theorem 9, part 1)", E2CrashDegreeNecessity},
		{"E3", "Crash resilience boundary n=2f vs 2f+1 (Theorem 9, part 2)", E3CrashResilienceBoundary},
		{"E4", "Worst-case rounds ≈ T·p_end (§VII)", E4RoundsVsT},
		{"E5", "DBAC convergence vs the 1−2⁻ⁿ bound (Theorem 7)", E5DBACConvergence},
		{"E6", "Byzantine split construction (Theorem 10)", E6ByzantineNecessity},
		{"E7", "DAC vs prior-work baselines", E7Baselines},
		{"E8", "Piggyback bandwidth/convergence trade-off (§VII)", E8BandwidthTradeoff},
	}
	reg := append(core, extensionRegistry()...)
	return append(reg, figureRegistry()...)
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func() *analysis.Table
}

// rateFloor is the range below which per-phase contraction ratios are
// numerically meaningless and excluded from rate estimates.
const rateFloor = 1e-6

// E1DACConvergence measures, for several network sizes and adversaries,
// the number of rounds to termination and the empirical per-phase
// contraction of range(V(p)). Theorem 3 predicts contraction ≤ 1/2 per
// phase; the complete graph should hit p_end rounds exactly. Matrix:
// examples/specs/e1-dac-convergence.yaml.
func E1DACConvergence() *analysis.Table {
	g := sweepGrid("e1-dac-convergence.yaml")
	trackers := trackPhases(&g)
	tb := analysis.NewTable(
		"E1: DAC convergence (ε=1e-3, p_end=10, f=⌊(n−1)/2⌋ crashes staggered)",
		"n", "f", "adversary", "rounds", "decided", "range", "worst ρ", "geo-mean ρ")
	runSweep(g, func(c anondyn.Cell, run int, res *anondyn.Result) {
		tr := trackers[run]
		tb.AddRowf(c.N, c.F, c.Adversary.Name, res.Rounds, res.Decided, res.OutputRange(),
			tr.WorstRatio(rateFloor), analysis.GeoMean(tr.Ratios(rateFloor)))
	})
	tb.AddNote("Theorem 3: ρ ≤ 1/2 per phase; complete graph terminates in exactly p_end rounds")
	return tb
}

// E2CrashDegreeNecessity realizes the Theorem 9 (part 1) construction:
// with (1, ⌊n/2⌋−1)-dynaDegree — two forever-isolated halves — the real
// DAC (quorum ⌊n/2⌋+1) can never terminate, and the hypothetical
// algorithm that settles for one less (quorum ⌊n/2⌋, i.e. "communicate
// with ⌊n/2⌋ nodes including yourself") terminates with outputs 0 and 1:
// ε-agreement is violated, exactly as the proof predicts. Matrix:
// examples/specs/e2-crash-degree-necessity.yaml (a two-variant sweep).
func E2CrashDegreeNecessity() *analysis.Table {
	g := sweepGrid("e2-crash-degree-necessity.yaml")
	tb := analysis.NewTable(
		"E2: Theorem 9 part 1 — split adversary at (1, ⌊n/2⌋−1)-dynaDegree, inputs 0|1",
		"n", "quorum", "variant", "decided", "rounds", "range", "ε-agreement")
	runSweep(g, func(c anondyn.Cell, _ int, res *anondyn.Result) {
		quorum := variantScenario(c).QuorumOverride
		if quorum == 0 {
			quorum = c.N/2 + 1 // the paper quorum
		}
		tb.AddRowf(c.N, quorum, c.Variant.Name, res.Decided, res.Rounds,
			res.OutputRange(), res.EpsAgreement(c.Eps))
	})
	tb.AddNote("paper quorum stalls (termination impossible); quorum−1 terminates but groups decide 0 vs 1")
	return tb
}

// E3CrashResilienceBoundary probes Theorem 9 (part 2): with n = 2f the
// f crashes leave only f survivors — one short of the ⌊n/2⌋+1 quorum —
// so DAC stalls; and any algorithm that terminates anyway (quorum f)
// splits. n = 2f+1 is the control: it must decide correctly. Matrix:
// the three examples/specs/e3-resilience-*.yaml sweeps, interleaved per
// fault bound.
func E3CrashResilienceBoundary() *analysis.Table {
	tb := analysis.NewTable(
		"E3: Theorem 9 part 2 — resilience boundary under f early crashes",
		"n", "f", "variant", "decided", "rounds", "range", "valid", "ε-agreement")
	type row struct {
		c   anondyn.Cell
		res *anondyn.Result
	}
	variants := []struct {
		label string
		file  string
	}{
		{"n=2f+1 control", "e3-resilience-control.yaml"},
		{"n=2f DAC", "e3-resilience-boundary.yaml"},
		{"n=2f eager(quorum=f)", "e3-resilience-eager.yaml"},
	}
	rows := make([][]row, len(variants))
	for i, v := range variants {
		g := sweepGrid(v.file)
		runSweep(g, func(c anondyn.Cell, _ int, res *anondyn.Result) {
			rows[i] = append(rows[i], row{c: c, res: res})
		})
		// The three files are interleaved positionally below; a drifted
		// matrix must fail loudly, not pair wrong rows.
		if len(rows[i]) != len(rows[0]) {
			panic(fmt.Sprintf("E3: %s delivered %d runs, %s delivered %d — matrices out of step",
				variants[0].file, len(rows[0]), v.file, len(rows[i])))
		}
	}
	for j := range rows[0] { // one block per fault bound (f=2, f=3)
		for i, v := range variants {
			r := rows[i][j]
			tb.AddRowf(r.c.N, r.c.F, v.label, r.res.Decided, r.res.Rounds,
				r.res.OutputRange(), r.res.Valid(), r.res.EpsAgreement(r.c.Eps))
		}
	}
	tb.AddNote("n=2f: survivors < quorum ⇒ stall; eager quorum=f terminates but halves decide 0 vs 1")
	return tb
}

// E4RoundsVsT runs DAC against the T-periodic starving adversary (T−1
// empty rounds, then one complete round): every phase needs a full
// period, so rounds ≈ T·p_end — the worst-case round complexity the
// paper states in §VII. Matrix: examples/specs/e4-rounds-vs-t.yaml.
func E4RoundsVsT() *analysis.Table {
	g := sweepGrid("e4-rounds-vs-t.yaml")
	pEnd := anondyn.PEndDAC(1e-3)
	tb := analysis.NewTable(
		fmt.Sprintf("E4: DAC rounds vs T (n=9, ε=1e-3, p_end=%d, T-periodic starve adversary)", pEnd),
		"T", "rounds", "T·p_end", "rounds/(T·p_end)", "decided")
	runSweep(g, func(c anondyn.Cell, _ int, res *anondyn.Result) {
		_, arg, _ := strings.Cut(c.Adversary.Name, ":")
		period, err := strconv.Atoi(arg)
		if err != nil {
			panic(fmt.Sprintf("E4: adversary %q: %v", c.Adversary.Name, err))
		}
		tb.AddRowf(period, res.Rounds, period*pEnd,
			float64(res.Rounds)/float64(period*pEnd), res.Decided)
	})
	tb.AddNote("both algorithms complete in T·p_end rounds in the worst case (§VII)")
	return tb
}

// E5DBACConvergence measures DBAC under equivocating Byzantine nodes:
// phases needed to reach range ≤ ε versus the paper's per-phase bound
// 1−2⁻ⁿ (Theorem 7), whose p_end (Equation 6) is astronomically loose
// compared to observed behavior. Matrix:
// examples/specs/e5-dbac-convergence.yaml.
func E5DBACConvergence() *analysis.Table {
	g := sweepGrid("e5-dbac-convergence.yaml")
	trackers := trackPhases(&g)
	tb := analysis.NewTable(
		"E5: DBAC convergence (equivocating Byzantine, complete graph, ε=1e-3)",
		"n", "f", "rounds", "phases→ε", "worst ρ", "geo-mean ρ", "bound 1−2⁻ⁿ", "Eq.6 p_end", "valid")
	runSweep(g, func(c anondyn.Cell, run int, res *anondyn.Result) {
		tr := trackers[run]
		tb.AddRowf(c.N, c.F, res.Rounds, tr.PhasesToRange(c.Eps),
			tr.WorstRatio(rateFloor), analysis.GeoMean(tr.Ratios(rateFloor)),
			1-math.Pow(2, -float64(c.N)), anondyn.PEndDBAC(c.Eps, c.N), res.Valid())
	})
	tb.AddNote("observed contraction ≈ 1/2 per phase; the 1−2⁻ⁿ proof bound (and its Equation-6 p_end) is extremely conservative")
	return tb
}

// E6ByzantineNecessity realizes the full Theorem 10 construction: two
// 3f-overlapping groups at degree ⌊(n+3f)/2⌋−1, SplitBrain equivocators
// in the middle. Real DBAC stalls; the hypothetical quorum−1 algorithm
// terminates with group A on 0 and group B on 1. Matrix:
// examples/specs/e6-byzantine-split.yaml (construction: byzsplit).
func E6ByzantineNecessity() *analysis.Table {
	g := sweepGrid("e6-byzantine-split.yaml")
	tb := analysis.NewTable(
		"E6: Theorem 10 — Byzantine split at (1, ⌊(n+3f)/2⌋−1)-dynaDegree",
		"n", "f", "degree", "variant", "decided", "rounds", "range", "ε-agreement")
	runSweep(g, func(c anondyn.Cell, _ int, res *anondyn.Result) {
		split, err := anondyn.NewByzSplit(c.N, c.F)
		if err != nil {
			panic(fmt.Sprintf("E6 n=%d f=%d: %v", c.N, c.F, err))
		}
		tb.AddRowf(c.N, c.F, split.Degree(), c.Variant.Name, res.Decided, res.Rounds,
			res.OutputRange(), res.EpsAgreement(c.Eps))
	})
	tb.AddNote("SplitBrain Byzantine nodes show input 0 to group A and 1 to group B; anonymity makes the equivocation undetectable")
	return tb
}

// E7Baselines compares DAC with the prior-work baselines on identical
// adversaries: the reliable-channel algorithm breaks under splits, the
// mega-round strawman needs T as input and pays for it in rounds, and
// full information matches DAC's rate at unbounded message size.
// Matrix: examples/specs/e7-baselines.yaml (the variants axis swaps
// the algorithm per cell).
func E7Baselines() *analysis.Table {
	g := sweepGrid("e7-baselines.yaml")
	tb := analysis.NewTable(
		"E7: algorithm comparison (n=7, ε=1e-3, f=0 faults, identical adversaries)",
		"algorithm", "adversary", "decided", "rounds", "range", "ε-agreement", "avg bytes/msg")
	advLabels := map[string]string{
		"complete":       "complete",
		"rotating:3":     "rotating(3)",
		"starveperiod:2": "periodic starve(2)",
		"halves":         "split halves",
	}
	type row struct {
		c   anondyn.Cell
		res *anondyn.Result
	}
	per := g.SeedsPerCell
	if per < 1 {
		per = 1
	}
	nVars := len(g.Variants)
	if nVars == 0 {
		panic("E7: the committed spec lost its variants axis (the algorithm comparison)")
	}
	nAdvs := len(g.Cells()) / nVars
	rows := make([]row, len(g.Cells())*per)
	runSweep(g, func(c anondyn.Cell, run int, res *anondyn.Result) {
		rows[run] = row{c: c, res: res}
	})
	// The grid enumerates adversary-outer, variant-inner; the table
	// reads algorithm-outer like the paper's comparison.
	for v := 0; v < nVars; v++ {
		for a := 0; a < nAdvs; a++ {
			for s := 0; s < per; s++ {
				r := rows[(a*nVars+v)*per+s]
				avgBytes := 0.0
				if r.res.MessagesDelivered > 0 {
					avgBytes = float64(r.res.BytesDelivered) / float64(r.res.MessagesDelivered)
				}
				tb.AddRowf(r.c.Variant.Name, label(advLabels, r.c.Adversary.Name), r.res.Decided,
					r.res.Rounds, r.res.OutputRange(), r.res.EpsAgreement(r.c.Eps), avgBytes)
			}
		}
	}
	tb.AddNote("split halves: DAC/MegaRound/FullInfo stall (correct refusal); RelIter 'decides' 0 and 1 — the motivating failure")
	tb.AddNote("MegaRound must be told T; DAC's jump rule needs no such knowledge (§II-B)")
	return tb
}

// E8BandwidthTradeoff sweeps the §VII piggyback window K on a skew-
// inducing adversary and reports rounds, output range, message size and
// the per-phase contraction ratios ρ.
// Matrix: examples/specs/e8-piggyback-window.yaml (the variants axis
// sweeps K on a seed-pinned adversary).
func E8BandwidthTradeoff() *analysis.Table {
	g := sweepGrid("e8-piggyback-window.yaml")
	trackers := trackPhases(&g)
	tb := analysis.NewTable(
		"E8: DBAC piggyback window sweep (n=11, f=2, random-degree adversary, ε=1e-3)",
		"K", "rounds", "decided", "range", "avg bytes/msg", "worst ρ", "geo-mean ρ")
	runSweep(g, func(c anondyn.Cell, run int, res *anondyn.Result) {
		k, err := strconv.Atoi(strings.TrimPrefix(c.Variant.Name, "K="))
		if err != nil {
			panic(fmt.Sprintf("E8: variant %q: %v", c.Variant.Name, err))
		}
		tr := trackers[run]
		avgBytes := 0.0
		if res.MessagesDelivered > 0 {
			avgBytes = float64(res.BytesDelivered) / float64(res.MessagesDelivered)
		}
		tb.AddRowf(k, res.Rounds, res.Decided, res.OutputRange(), avgBytes,
			tr.WorstRatio(rateFloor), analysis.GeoMean(tr.Ratios(rateFloor)))
	})
	tb.AddNote("K trades message bytes for same-phase updates (§VII); with unlimited K this becomes the FullInfo simulation")
	return tb
}
