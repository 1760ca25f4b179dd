package analysis

import (
	"math"
	"sort"
	"testing"
)

func TestPhaseTrackerBasics(t *testing.T) {
	tr := NewPhaseTracker()
	tr.SetInput(0, 0.0)
	tr.SetInput(1, 1.0)
	tr.SetInput(2, 0.5)
	if got := tr.Range(0); got != 1.0 {
		t.Errorf("Range(0) = %g, want 1", got)
	}
	if got := tr.Count(0); got != 3 {
		t.Errorf("Count(0) = %d, want 3", got)
	}
	tr.OnPhaseEnter(0, 0, 1, 0.5, 3)
	tr.OnPhaseEnter(1, 0, 1, 0.75, 3)
	tr.OnPhaseEnter(2, 0, 1, 0.5, 4)
	if got := tr.Range(1); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("Range(1) = %g, want 0.25", got)
	}
	if tr.MaxPhase() != 1 {
		t.Errorf("MaxPhase = %d, want 1", tr.MaxPhase())
	}
	vals := tr.Values(1)
	if len(vals) != 3 || vals[0] != 0.5 || vals[2] != 0.75 {
		t.Errorf("Values(1) = %v", vals)
	}
}

func TestPhaseTrackerJumpFillsSkippedPhases(t *testing.T) {
	// Definition 6: a node jumping 1→4 contributes its landing value to
	// phases 2, 3 and 4.
	tr := NewPhaseTracker()
	tr.SetInput(0, 0.3)
	tr.OnPhaseEnter(0, 1, 4, 0.8, 7)
	for p := 2; p <= 4; p++ {
		if got := tr.Count(p); got != 1 {
			t.Errorf("Count(%d) = %d, want 1", p, got)
		}
		if got := tr.Values(p)[0]; got != 0.8 {
			t.Errorf("phase %d value = %g, want landing 0.8", p, got)
		}
	}
	if tr.Count(1) != 0 {
		t.Error("phase 1 polluted (from-phase must not be recorded)")
	}
}

func TestPhaseTrackerRatios(t *testing.T) {
	tr := NewPhaseTracker()
	// Phase 0 range 1.0, phase 1 range 0.5, phase 2 range 0.2.
	tr.SetInput(0, 0)
	tr.SetInput(1, 1)
	tr.OnPhaseEnter(0, 0, 1, 0.25, 1)
	tr.OnPhaseEnter(1, 0, 1, 0.75, 1)
	tr.OnPhaseEnter(0, 1, 2, 0.4, 2)
	tr.OnPhaseEnter(1, 1, 2, 0.6, 2)
	ratios := tr.Ratios(0)
	if len(ratios) != 2 {
		t.Fatalf("len(ratios) = %d, want 2", len(ratios))
	}
	if math.Abs(ratios[0]-0.5) > 1e-12 || math.Abs(ratios[1]-0.4) > 1e-12 {
		t.Errorf("ratios = %v, want [0.5 0.4]", ratios)
	}
	if got := tr.WorstRatio(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("WorstRatio = %g, want 0.5", got)
	}
}

func TestPhaseTrackerRatioFloor(t *testing.T) {
	tr := NewPhaseTracker()
	tr.SetInput(0, 0.5)
	tr.SetInput(1, 0.5) // zero initial range
	tr.OnPhaseEnter(0, 0, 1, 0.5, 1)
	tr.OnPhaseEnter(1, 0, 1, 0.5, 1)
	ratios := tr.Ratios(1e-9)
	if len(ratios) != 1 || !math.IsNaN(ratios[0]) {
		t.Errorf("ratios = %v, want [NaN] below the floor", ratios)
	}
	if got := tr.WorstRatio(1e-9); got != 0 {
		t.Errorf("WorstRatio with no meaningful phase = %g, want 0", got)
	}
}

func TestPhasesToRange(t *testing.T) {
	tr := NewPhaseTracker()
	tr.SetInput(0, 0)
	tr.SetInput(1, 1)
	tr.OnPhaseEnter(0, 0, 1, 0.4, 1)
	tr.OnPhaseEnter(1, 0, 1, 0.6, 1)
	tr.OnPhaseEnter(0, 1, 2, 0.5, 2)
	tr.OnPhaseEnter(1, 1, 2, 0.5, 2)
	if got := tr.PhasesToRange(0.25); got != 1 {
		t.Errorf("PhasesToRange(0.25) = %d, want 1", got)
	}
	if got := tr.PhasesToRange(0.0); got != 2 {
		t.Errorf("PhasesToRange(0) = %d, want 2", got)
	}
	if got := tr.PhasesToRange(-1); got != -1 {
		t.Errorf("PhasesToRange(-1) = %d, want -1 (never reached)", got)
	}
}

func TestPhaseTrackerSingleNodeRangeZero(t *testing.T) {
	tr := NewPhaseTracker()
	tr.SetInput(0, 0.7)
	if got := tr.Range(0); got != 0 {
		t.Errorf("|V(p)| = 1 range = %g, want 0", got)
	}
	if got := tr.Range(9); got != 0 {
		t.Errorf("empty phase range = %g, want 0", got)
	}
}

func TestPhaseTrackerOnDecideIsNoop(t *testing.T) {
	tr := NewPhaseTracker()
	tr.OnDecide(0, 0.5, 3)
	if tr.MaxPhase() != 0 || tr.Count(0) != 0 {
		t.Error("OnDecide mutated the tracker")
	}
}

// Values returns V(p) sorted ascending (a fresh slice).
func (t *PhaseTracker) Values(p int) []float64 {
	m := t.values[p]
	vs := make([]float64, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	return vs
}
