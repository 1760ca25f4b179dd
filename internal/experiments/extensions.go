package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/analysis"
)

// extensionRegistry returns the experiments covering Corollary 1 and the
// §VII open problems, appended to the core E1–E8 set.
func extensionRegistry() []Experiment {
	return []Experiment{
		{"E9", "Exact consensus impossibility at (1, n−2)-dynaDegree (Corollary 1)", E9ExactImpossibility},
		{"E10", "Expected rounds under the probabilistic adversary (§VII open problem)", E10ProbabilisticRounds},
		{"E11", "Per-link bandwidth budgets vs history-carrying algorithms (§VII)", E11BandwidthCaps},
		{"E12", "Jump-rule ablation: DAC with lines 5–8 removed (§IV change (i))", E12JumpAblation},
		{"E13", "Worst observed DBAC rate across attack families (§VII open problem)", E13RateProbe},
	}
}

// E9ExactImpossibility makes Corollary 1 executable. FloodMin solves
// binary exact consensus on the reliable complete graph, but under the
// isolate/chase-min adversaries — which keep (1, n−2)-dynaDegree by
// dropping exactly one incoming message per receiver per round — the
// minimum never propagates and exact agreement fails with ZERO faulty
// nodes. DAC, run under the very same adversaries (n−2 ≥ ⌊n/2⌋), solves
// approximate consensus: the feasibility gap between exact and
// approximate consensus in this model, realized. Matrix:
// examples/specs/e9-exact-floodmin.yaml, then e9-approx-dac.yaml.
func E9ExactImpossibility() *analysis.Table {
	tb := analysis.NewTable(
		"E9: Corollary 1 — exact vs approximate consensus at (1, n−2)-dynaDegree (n=7, node 0 has input 0, rest 1)",
		"algorithm", "adversary", "decided", "distinct outputs", "range", "agreement")
	advLabels := map[string]string{"isolate:0": "isolate(0)", "chasemin": "chaseMin"}
	for _, file := range []string{"e9-exact-floodmin.yaml", "e9-approx-dac.yaml"} {
		runSweep(sweepGrid(file), func(c anondyn.Cell, _ int, res *anondyn.Result) {
			distinct := countDistinct(res.Outputs)
			agreement := res.Decided && res.EpsAgreement(c.Eps)
			if c.Algorithm == anondyn.AlgoFloodMin {
				agreement = res.Decided && distinct == 1 // exact agreement
			}
			tb.AddRowf(c.Algorithm.String(), label(advLabels, c.Adversary.Name), res.Decided,
				distinct, res.OutputRange(), agreement)
		})
	}
	tb.AddNote("exact consensus: the adversary suppresses one message per receiver per round and the 0 never spreads")
	tb.AddNote("DAC under the same adversaries: n−2 = 5 ≥ ⌊n/2⌋ = 3, so approximate consensus remains solvable")
	return tb
}

func countDistinct(outputs map[int]float64) int {
	seen := make(map[float64]bool, len(outputs))
	for _, v := range outputs {
		seen[v] = true
	}
	return len(seen)
}

// E10ProbabilisticRounds measures DAC's rounds-to-output under the
// random per-round Erdős–Rényi adversary across link probabilities —
// the expected-round-complexity question §VII poses. Each p is one cell
// of examples/specs/e10-er-rounds.yaml, aggregated over its seeds by
// the sweep's own per-cell fold.
func E10ProbabilisticRounds() *analysis.Table {
	g := sweepGrid("e10-er-rounds.yaml")
	rows, err := g.Run(batchOptions())
	if err != nil {
		panic(fmt.Sprintf("E10: %v", err))
	}
	tb := analysis.NewTable(
		fmt.Sprintf("E10: DAC under er(p), n=%d, f=%d crashes, ε=1e-3, %d seeds per p", rows[0].N, rows[0].F, g.SeedsPerCell),
		"p", "decided", "rounds mean", "rounds median", "rounds p95", "rounds max", "violations")
	for _, r := range rows {
		p, err := strconv.ParseFloat(strings.TrimPrefix(r.Adversary, "er:"), 64)
		if err != nil {
			panic(fmt.Sprintf("E10: adversary %q: %v", r.Adversary, err))
		}
		tb.AddRowf(p, r.Decided == r.Runs, r.Rounds.Mean, r.Rounds.Median, r.Rounds.P95, r.Rounds.Max, r.Violations)
	}
	tb.AddNote("no (T,D) guarantee holds deterministically; termination is only probabilistic — yet safety (validity, ε-agreement) never breaks")
	return tb
}

// E11BandwidthCaps enforces a per-link byte budget (§VII's remark on
// bandwidth-constrained links): plain DAC/DBAC always fit; FullInfo's
// messages grow with the phase count until the link drops them, and the
// run stalls mid-convergence. A bounded piggyback window is the §VII
// compromise: pick K so the message fits the link. Matrix:
// examples/specs/e11-bandwidth-crash.yaml (DAC, FullInfo) and
// e11-bandwidth-byzantine.yaml (DBAC and its windows), whose variants
// set the cap.
func E11BandwidthCaps() *analysis.Table {
	tb := analysis.NewTable(
		"E11: per-link bandwidth budget (n=11, f=2 where applicable, rotating adversary, ε=1e-3)",
		"algorithm", "cap (bytes)", "decided", "rounds", "oversized drops", "range")
	type row struct {
		c   anondyn.Cell
		res *anondyn.Result
	}
	collect := func(file string) (rows []row) {
		runSweep(sweepGrid(file), func(c anondyn.Cell, _ int, res *anondyn.Result) {
			rows = append(rows, row{c: c, res: res})
		})
		return rows
	}
	crash, byz := collect("e11-bandwidth-crash.yaml"), collect("e11-bandwidth-byzantine.yaml")
	// Light to heavy messages: the crash family's first algorithm (DAC)
	// opens the table, the Byzantine family follows, and the crash
	// family's second (FullInfo) closes it. The capped prefix makes
	// append copy rather than overwrite FullInfo's rows.
	half := len(crash) / 2
	for _, r := range append(append(crash[:half:half], byz...), crash[half:]...) {
		s, res := variantScenario(r.c), r.res
		algo := s.Algorithm.String()
		if s.PiggybackWindow > 0 {
			algo += fmt.Sprintf("(K=%d)", s.PiggybackWindow)
		}
		capLabel := "∞"
		if s.MaxMessageBytes > 0 {
			capLabel = strconv.Itoa(s.MaxMessageBytes)
		}
		tb.AddRowf(algo, capLabel, res.Decided, res.Rounds, res.MessagesOversized, res.OutputRange())
	}
	tb.AddNote("cap 24 bytes ≈ current state + 4 history entries; FullInfo outgrows it and stalls, bounded windows keep fitting")
	return tb
}

// E12JumpAblation removes the jump rule (Algorithm 1 lines 5–8) and
// re-runs the E1 adversaries. §IV introduces the rule so that nodes
// need not retransmit prior-phase states under message loss: without it,
// any adversary that staggers quorum arrivals strands slow nodes in
// phases that nobody broadcasts anymore. Lockstep adversaries (complete,
// rotating — every node advances every round) hide the defect; the
// randomized one exposes the deadlock. Matrix:
// examples/specs/e12-jump-ablation.yaml.
func E12JumpAblation() *analysis.Table {
	tb := analysis.NewTable(
		"E12: jump-rule ablation (n=9, ε=1e-3, no faults)",
		"algorithm", "adversary", "decided", "rounds", "range", "ε-agreement")
	advLabels := map[string]string{
		"rotating:crashdeg":          "rotating(4)",
		"random:3,crashdeg,0.05,321": "randDeg(B=3,D=4)",
	}
	runSweep(sweepGrid("e12-jump-ablation.yaml"), func(c anondyn.Cell, _ int, res *anondyn.Result) {
		tb.AddRowf(c.Algorithm.String(), label(advLabels, c.Adversary.Name), res.Decided, res.Rounds,
			res.OutputRange(), res.EpsAgreement(c.Eps))
	})
	tb.AddNote("without the jump rule, staggered quorums strand slow nodes in abandoned phases: deadlock")
	return tb
}
