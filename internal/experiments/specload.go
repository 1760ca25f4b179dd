package experiments

import (
	"fmt"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/spec"
)

// The experiment matrices live in committed spec files under
// examples/specs — the YAML is the source of truth for the cells an
// experiment runs; the Go side only attaches collectors and renders
// tables. Load failures panic: the files are embedded, parsed by the
// spec tests, and smoke-run by CI, so an error here is a programming
// error exactly like a failing scenario.

// Workers bounds every pool the experiments spawn; 0 means GOMAXPROCS.
// dyna tables sets it from -workers so one flag governs the whole tree
// of pools.
var Workers int

// batchOptions returns the experiment-wide pool configuration.
func batchOptions() anondyn.BatchOptions { return anondyn.BatchOptions{Workers: Workers} }

// sweepGrid loads one committed sweep definition.
func sweepGrid(file string) anondyn.Grid {
	data, err := specs.Read(file)
	if err != nil {
		panic(fmt.Sprintf("experiments: committed spec %s: %v", file, err))
	}
	sw, err := spec.Parse(data)
	if err != nil {
		panic(fmt.Sprintf("experiments: committed spec %s: %v", file, err))
	}
	g, err := sw.Grid()
	if err != nil {
		panic(fmt.Sprintf("experiments: committed spec %s: %v", file, err))
	}
	return g
}

// runSweep executes the grid on the experiment worker pool, handing
// every run to emit in deterministic order (cells in Cells() order,
// seeds ascending; run is the global batch index).
func runSweep(g anondyn.Grid, emit func(c anondyn.Cell, run int, res *anondyn.Result)) {
	err := g.RunEach(batchOptions(), func(c anondyn.Cell, _, run int, _ int64, res *anondyn.Result) error {
		emit(c, run, res)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// hook chains fn after the grid's Mutate hook (the spec's fault
// pattern) with each run's global index — how the Go side attaches
// per-run collectors and the knobs no spec key expresses.
func hook(g *anondyn.Grid, fn func(s *anondyn.Scenario, run int)) {
	prev, base := g.Mutate, g.BaseSeed
	g.Mutate = func(s *anondyn.Scenario, c anondyn.Cell, seed int64) {
		if prev != nil {
			prev(s, c, seed)
		}
		fn(s, int(seed-base))
	}
}

// trackPhases hooks a fresh PhaseTracker onto every run of the grid
// and returns them indexed by global run index — the bridge between
// the declarative matrix and the per-run V(p) reconstruction the
// convergence tables report.
func trackPhases(g *anondyn.Grid) []*anondyn.PhaseTracker {
	trackers := make([]*anondyn.PhaseTracker, g.Runs())
	hook(g, func(s *anondyn.Scenario, run int) {
		trackers[run] = anondyn.NewPhaseTracker()
		s.Tracker = trackers[run]
	})
	return trackers
}

// recordSeries hooks a fresh RangeSeries onto every run of the grid
// and returns them indexed by global run index.
func recordSeries(g *anondyn.Grid) []*anondyn.RangeSeries {
	series := make([]*anondyn.RangeSeries, g.Runs())
	hook(g, func(s *anondyn.Scenario, run int) {
		series[run] = anondyn.NewRangeSeries()
		s.Series = series[run]
	})
	return series
}

// variantScenario is the cell's scenario parameters with its variant
// applied — how a table reads what a variant changed (quorum, algorithm,
// window, byte cap) off the variant itself rather than its name.
func variantScenario(c anondyn.Cell) anondyn.Scenario {
	s := anondyn.Scenario{N: c.N, F: c.F, Eps: c.Eps, Algorithm: c.Algorithm}
	if c.Variant.Apply != nil {
		c.Variant.Apply(&s)
	}
	return s
}

// label returns the table's display label for a spec name, or the name
// itself when the spec gained a value the label map predates.
func label(labels map[string]string, name string) string {
	if l, ok := labels[name]; ok {
		return l
	}
	return name
}
