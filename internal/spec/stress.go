package spec

import (
	"fmt"

	"anondyn"
	"anondyn/internal/chaos"
)

// The stress section is the spec grammar of the chaos layer
// (internal/chaos): a generated fleet, a failure-storm schedule and
// survival assertions. A stress sweep replaces the ns/fs matrix — the
// fleet defines the single network size, the events define the fault
// load, and the declared assertions compile into report verdicts after
// the runs.

// validateStress checks the stress section and rejects every top-level
// key the storm subsumes — a spec either declares a matrix or a storm,
// never both.
func (s *Sweep) validateStress() error {
	switch {
	case len(s.Ns) > 0:
		return fmt.Errorf("ns: cannot combine with stress (stress.fleet.total_nodes defines the network size)")
	case len(s.Pairs) > 0:
		return fmt.Errorf("cells: cannot combine with stress (stress.fleet.total_nodes defines the network size)")
	case len(s.Fs) > 0:
		return fmt.Errorf("fs: cannot combine with stress (the storm's events define the fault load)")
	case s.Crashes != nil:
		return fmt.Errorf("crashes: cannot combine with stress (declare crash events in stress.events)")
	case len(s.Byzantine) > 0:
		return fmt.Errorf("byzantine: cannot combine with stress (declare byzantine events in stress.events)")
	case s.Construction != "":
		return fmt.Errorf("construction: cannot combine with stress")
	case s.Inputs != "":
		return fmt.Errorf("inputs: cannot combine with stress (inputs belong to the fleet templates)")
	case s.MaxRounds != 0:
		return fmt.Errorf("max_rounds: cannot combine with stress (stress.rounds is the storm duration)")
	case len(s.Variants) > 0:
		return fmt.Errorf("variants: cannot combine with stress")
	}
	return s.Stress.Validate()
}

// applyStress compiles the stress section onto the Grid: the fleet
// becomes the single-n axis, the round budget becomes the cap (runs
// still end early at quiescence), the fleet templates become the input
// generator, and Mutate installs each run's materialized storm — the
// crash schedule, the Byzantine cast and the connectivity wrapper over
// the cell's adversary.
func (s *Sweep) applyStress(g *anondyn.Grid) {
	st := s.Stress
	g.Ns = []int{st.Fleet.TotalNodes}
	g.MaxRounds = st.Rounds
	g.Inputs = func(_ int, seed int64) []float64 { return st.Inputs(seed) }
	g.Mutate = func(sc *anondyn.Scenario, _ anondyn.Cell, seed int64) {
		storm := st.CompileStorm(seed)
		sc.Crashes = storm.Crashes
		sc.Byzantine = storm.Byzantine
		sc.Adversary = storm.WrapAdversary(sc.Adversary)
	}
}

// Verdicts evaluates the stress assertions against a completed sweep's
// aggregate rows. The rows (plus the spec itself) are all the evidence
// needed, so a dynagrid submit client computes the same verdicts as a
// local run — the merged report is byte-identical either way. Nil for
// sweeps without a stress section.
func (s *Sweep) Verdicts(rows []anondyn.CellResult) []chaos.Verdict {
	if s.Stress == nil {
		return nil
	}
	per := s.SeedsPerCell
	if per < 1 {
		per = 1
	}
	return chaos.Eval(s.Stress, s.BaseSeed, per, rows)
}

// StormTimeline renders the first run's materialized storm — the
// report's timeline exhibit. Nil for sweeps without a stress section.
func (s *Sweep) StormTimeline() []chaos.TimelineEntry {
	if s.Stress == nil {
		return nil
	}
	return s.Stress.CompileStorm(s.BaseSeed).Timeline
}
