package adversary

import (
	"testing"

	"anondyn/internal/core"
)

// valueView is a test View with explicit per-node values.
type valueView []float64

func (v valueView) N() int { return len(v) }
func (v valueView) Snapshot(i int) core.Snapshot {
	return core.Snapshot{Value: v[i]}
}

func TestClusteredSplitsByValue(t *testing.T) {
	a, err := NewClustered(4)
	if err != nil {
		t.Fatal(err)
	}
	// Values interleave: low {0,2,4}, high {1,3,5} — clusters must be
	// value-sorted, not ID-sorted.
	view := valueView{0.1, 0.9, 0.2, 0.8, 0.15, 0.95}
	e := a.Edges(0, view) // round 0: (0+1)%4 != 0 → clustered
	lows := []int{0, 2, 4}
	highs := []int{1, 3, 5}
	for _, u := range lows {
		for _, v := range highs {
			if e.Has(u, v) || e.Has(v, u) {
				t.Errorf("cross-cluster link %d↔%d on a non-complete round", u, v)
			}
		}
	}
	for _, u := range lows {
		for _, v := range lows {
			if u != v && !e.Has(u, v) {
				t.Errorf("low cluster missing %d→%d", u, v)
			}
		}
	}
	// Round 3 ((3+1)%4==0) must be complete.
	e3 := a.Edges(3, view)
	if e3.Len() != 6*5 {
		t.Errorf("round 3 has %d edges, want complete 30", e3.Len())
	}
}

func TestClusteredPeriodOne(t *testing.T) {
	a, err := NewClustered(1)
	if err != nil {
		t.Fatal(err)
	}
	e := a.Edges(0, valueView{0.1, 0.9, 0.5})
	if e.Len() != 6 {
		t.Errorf("period 1 should be complete every round, got %d edges", e.Len())
	}
	if _, err := NewClustered(0); err == nil {
		t.Error("period 0 accepted")
	}
}

func TestStarveDegreeAndAffinity(t *testing.T) {
	a, err := NewStarve(2)
	if err != nil {
		t.Fatal(err)
	}
	view := valueView{0.0, 0.1, 0.2, 0.9, 1.0}
	e := a.Edges(0, view)
	for v := 0; v < 5; v++ {
		if got := e.InDegree(v); got != 2 {
			t.Errorf("InDegree(%d) = %d, want 2", v, got)
		}
	}
	// Node 0 (value 0.0) must hear its two closest peers 1 and 2, not 3
	// or 4.
	if !e.Has(1, 0) || !e.Has(2, 0) {
		t.Error("node 0 not fed by closest-valued peers")
	}
	if e.Has(3, 0) || e.Has(4, 0) {
		t.Error("node 0 fed by far-valued peers")
	}
	if _, err := NewStarve(0); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestStarveClampsDegree(t *testing.T) {
	a, _ := NewStarve(9)
	e := a.Edges(0, valueView{0.1, 0.2, 0.3})
	for v := 0; v < 3; v++ {
		if got := e.InDegree(v); got != 2 {
			t.Errorf("InDegree(%d) = %d, want clamped 2", v, got)
		}
	}
}
