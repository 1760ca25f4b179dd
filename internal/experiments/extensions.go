package experiments

import (
	"fmt"

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
// approximate consensus in this model, realized.
func E9ExactImpossibility() *analysis.Table {
	const (
		n   = 7
		eps = 1e-3
	)
	tb := analysis.NewTable(
		"E9: Corollary 1 — exact vs approximate consensus at (1, n−2)-dynaDegree (n=7, node 0 has input 0, rest 1)",
		"algorithm", "adversary", "decided", "distinct outputs", "range", "agreement")
	type c struct {
		algo anondyn.Algo
		name string
		adv  anondyn.Adversary
	}
	cases := []c{
		{anondyn.AlgoFloodMin, "complete", anondyn.Complete()},
		{anondyn.AlgoFloodMin, "isolate(0)", anondyn.Isolate(0)},
		{anondyn.AlgoFloodMin, "chaseMin", anondyn.ChaseMin()},
		{anondyn.AlgoDAC, "isolate(0)", anondyn.Isolate(0)},
		{anondyn.AlgoDAC, "chaseMin", anondyn.ChaseMin()},
	}
	runCases(len(cases), func(i int) (*anondyn.Result, error) {
		tc := cases[i]
		res, err := anondyn.Scenario{
			N: n, F: 0, Eps: eps,
			Algorithm: tc.algo,
			Unchecked: true,
			Inputs:    anondyn.SplitInputs(n, 1), // node 0 → 0, rest → 1
			Adversary: tc.adv,
			MaxRounds: 500,
		}.Run()
		if err != nil {
			return nil, fmt.Errorf("E9 %v/%s: %w", tc.algo, tc.name, err)
		}
		return res, nil
	}, func(i int, res *anondyn.Result) {
		tc := cases[i]
		distinct := countDistinct(res.Outputs)
		agreement := false
		if tc.algo == anondyn.AlgoFloodMin {
			agreement = res.Decided && distinct == 1 // exact agreement
		} else {
			agreement = res.Decided && res.EpsAgreement(eps)
		}
		tb.AddRowf(tc.algo.String(), tc.name, res.Decided, distinct, res.OutputRange(), agreement)
	})
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
// the expected-round-complexity question §VII poses. Each cell
// aggregates 20 seeded runs; the whole p × seed matrix runs as one
// worker-pool batch with a streaming BatchStats aggregate per p.
func E10ProbabilisticRounds() *analysis.Table {
	const (
		n      = 9
		f      = 2
		eps    = 1e-3
		runs   = 20
		budget = 100000
	)
	tb := analysis.NewTable(
		fmt.Sprintf("E10: DAC under er(p), n=%d, f=%d crashes, ε=1e-3, %d seeds per p", n, f, runs),
		"p", "decided", "rounds mean", "rounds median", "rounds p95", "rounds max", "violations")
	ps := []float64{0.05, 0.1, 0.2, 0.4, 0.7, 1.0}
	stats := make([]*anondyn.BatchStats, len(ps))
	for i := range ps {
		stats[i] = &anondyn.BatchStats{Eps: eps}
	}
	err := anondyn.RunManyStream(anondyn.Seeds(len(ps)*runs, 0),
		func(batchSeed int64) anondyn.Scenario {
			p := ps[int(batchSeed)/runs]
			seed := batchSeed % runs
			return anondyn.Scenario{
				N: n, F: f, Eps: eps,
				Algorithm: anondyn.AlgoDAC,
				Inputs:    anondyn.RandomInputs(n, 7000+seed),
				Adversary: anondyn.Probabilistic(p, 9000+seed),
				Crashes: map[int]anondyn.Crash{
					2: anondyn.CrashAt(4),
					5: anondyn.CrashAt(9),
				},
				MaxRounds: budget,
			}
		},
		func(index int, seed int64, res *anondyn.Result) error {
			return stats[index/runs].Consume(index, seed, res)
		},
		batchOptions())
	if err != nil {
		panic(fmt.Sprintf("E10: %v", err))
	}
	for i, p := range ps {
		s := stats[i].Rounds()
		tb.AddRowf(p, stats[i].DecidedAll(), s.Mean, s.Median, s.P95, s.Max, stats[i].Violations())
	}
	tb.AddNote("no (T,D) guarantee holds deterministically; termination is only probabilistic — yet safety (validity, ε-agreement) never breaks")
	return tb
}

// E11BandwidthCaps enforces a per-link byte budget (§VII's remark on
// bandwidth-constrained links): plain DAC/DBAC always fit; FullInfo's
// messages grow with the phase count until the link drops them, and the
// run stalls mid-convergence. A bounded piggyback window is the §VII
// compromise: pick K so the message fits the link.
func E11BandwidthCaps() *analysis.Table {
	const eps = 1e-3
	n, f := 11, 2
	tb := analysis.NewTable(
		"E11: per-link bandwidth budget (n=11, f=2 where applicable, rotating adversary, ε=1e-3)",
		"algorithm", "cap (bytes)", "decided", "rounds", "oversized drops", "range")
	type c struct {
		name string
		run  func(cap int) (*anondyn.Result, error)
	}
	mk := func(algo anondyn.Algo, window, ff int) func(cap int) (*anondyn.Result, error) {
		return func(cap int) (*anondyn.Result, error) {
			adv := anondyn.Rotating(anondyn.CrashDegree(n))
			pEnd := 0
			if algo == anondyn.AlgoDBAC || algo == anondyn.AlgoDBACPiggyback {
				adv = anondyn.Rotating(anondyn.ByzDegree(n, ff))
				pEnd = 14
			}
			return anondyn.Scenario{
				N: n, F: ff, Eps: eps,
				Algorithm:       algo,
				PiggybackWindow: window,
				PEndOverride:    pEnd,
				Inputs:          anondyn.SpreadInputs(n),
				Adversary:       adv,
				MaxRounds:       600,
				MaxMessageBytes: cap,
			}.Run()
		}
	}
	cases := []c{
		{"DAC", mk(anondyn.AlgoDAC, 0, 0)},
		{"DBAC", mk(anondyn.AlgoDBAC, 0, f)},
		{"DBAC+pb(K=2)", mk(anondyn.AlgoDBACPiggyback, 2, f)},
		{"DBAC+pb(K=8)", mk(anondyn.AlgoDBACPiggyback, 8, f)},
		{"FullInfo", mk(anondyn.AlgoFullInfo, 0, 0)},
	}
	limits := []int{0, 24}
	runCases(len(cases)*len(limits), func(i int) (*anondyn.Result, error) {
		tc, limit := cases[i/len(limits)], limits[i%len(limits)]
		res, err := tc.run(limit)
		if err != nil {
			return nil, fmt.Errorf("E11 %s cap=%d: %w", tc.name, limit, err)
		}
		return res, nil
	}, func(i int, res *anondyn.Result) {
		tc, limit := cases[i/len(limits)], limits[i%len(limits)]
		capLabel := "∞"
		if limit > 0 {
			capLabel = fmt.Sprintf("%d", limit)
		}
		tb.AddRowf(tc.name, capLabel, res.Decided, res.Rounds,
			res.MessagesOversized, res.OutputRange())
	})
	tb.AddNote("cap 24 bytes ≈ current state + 4 history entries; FullInfo outgrows it and stalls, bounded windows keep fitting")
	return tb
}

// E12JumpAblation removes the jump rule (Algorithm 1 lines 5–8) and
// re-runs the E1 adversaries. §IV introduces the rule so that nodes
// need not retransmit prior-phase states under message loss: without it,
// any adversary that staggers quorum arrivals strands slow nodes in
// phases that nobody broadcasts anymore. Lockstep adversaries (complete,
// rotating — every node advances every round) hide the defect; the
// randomized one exposes the deadlock.
func E12JumpAblation() *analysis.Table {
	const (
		n   = 9
		eps = 1e-3
	)
	tb := analysis.NewTable(
		"E12: jump-rule ablation (n=9, ε=1e-3, no faults)",
		"algorithm", "adversary", "decided", "rounds", "range", "ε-agreement")
	algos := []anondyn.Algo{anondyn.AlgoDAC, anondyn.AlgoDACNoJump}
	advs := []struct {
		name string
		mk   func() anondyn.Adversary
	}{
		{"complete", func() anondyn.Adversary { return anondyn.Complete() }},
		{"rotating(4)", func() anondyn.Adversary { return anondyn.Rotating(anondyn.CrashDegree(n)) }},
		{"randDeg(B=3,D=4)", func() anondyn.Adversary {
			return anondyn.RandomDegree(3, anondyn.CrashDegree(n), 0.05, 321)
		}},
	}
	runCases(len(algos)*len(advs), func(i int) (*anondyn.Result, error) {
		algo, ac := algos[i/len(advs)], advs[i%len(advs)]
		res, err := anondyn.Scenario{
			N: n, F: 0, Eps: eps,
			Algorithm: algo,
			Inputs:    anondyn.SpreadInputs(n),
			Adversary: ac.mk(),
			MaxRounds: 2000,
		}.Run()
		if err != nil {
			return nil, fmt.Errorf("E12 %v/%s: %w", algo, ac.name, err)
		}
		return res, nil
	}, func(i int, res *anondyn.Result) {
		algo, ac := algos[i/len(advs)], advs[i%len(advs)]
		tb.AddRowf(algo.String(), ac.name, res.Decided, res.Rounds,
			res.OutputRange(), res.EpsAgreement(eps))
	})
	tb.AddNote("without the jump rule, staggered quorums strand slow nodes in abandoned phases: deadlock")
	return tb
}
