package experiments

import (
	"fmt"

	"anondyn"
	"anondyn/internal/analysis"
)

// figureRegistry returns the figure-style experiments: round-resolution
// convergence curves rather than scalar tables.
func figureRegistry() []Experiment {
	return []Experiment{
		{"F1", "Convergence curves: range vs round per adversary (figure)", F1ConvergenceCurves},
	}
}

// F1ConvergenceCurves records the fault-free value range after every
// round for DAC and DBAC under increasingly hostile adversaries — the
// round-resolution picture behind the E1/E5 phase tables. Rendered as a
// log-scale sparkline per run plus sampled values. Matrix:
// examples/specs/f1-dac-curves.yaml, then f1-dbac-curves.yaml.
func F1ConvergenceCurves() *analysis.Table {
	tb := analysis.NewTable(
		"F1: range vs round (log-scale sparklines ▁=≤1e-6 … █=1; ε=1e-3)",
		"algorithm", "n", "adversary", "rounds→ε", "curve", "samples (round:range)")
	advLabels := map[string]string{
		"rotating:4":   "rotating(4)",
		"clustered:6":  "clustered(T=6)",
		"er:0.15,4242": "er(p=0.15)",
		"rotating:8":   "rotating(8)+equivocate",
	}
	for _, file := range []string{"f1-dac-curves.yaml", "f1-dbac-curves.yaml"} {
		g := sweepGrid(file)
		series := recordSeries(&g)
		runSweep(g, func(c anondyn.Cell, run int, res *anondyn.Result) {
			adv := label(advLabels, c.Adversary.Name)
			if !res.Decided {
				panic(fmt.Sprintf("F1 %v/%s: undecided", c.Algorithm, adv))
			}
			s := series[run]
			tb.AddRowf(c.Algorithm.String(), c.N, adv,
				s.RoundsToRange(c.Eps), s.Sparkline(24, 1e-6), s.FormatSampled(max(s.Len()/8, 1)))
		})
	}
	tb.AddNote("curves contract geometrically; hostile schedules stretch the x-axis (rounds), never the contraction per phase")
	return tb
}
