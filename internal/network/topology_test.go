package network

import "testing"

func TestComplete(t *testing.T) {
	n := 5
	e := Complete(n)
	if got, want := e.Len(), n*(n-1); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for v := 0; v < n; v++ {
		if e.InDegree(v) != n-1 {
			t.Errorf("InDegree(%d) = %d, want %d", v, e.InDegree(v), n-1)
		}
		if e.Has(v, v) {
			t.Errorf("self-loop at %d", v)
		}
	}
}

func TestRing(t *testing.T) {
	e := Ring(4)
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
	if !e.Has(3, 0) || !e.Has(0, 1) {
		t.Error("ring edges wrong")
	}
	if e.Has(1, 0) {
		t.Error("ring should be directed")
	}
}

// inRegular returns InRegularInto's graph on a fresh set.
func inRegular(n, d, offset int) *EdgeSet {
	e := NewEdgeSet(n)
	InRegularInto(e, d, offset)
	return e
}

func TestInRegular(t *testing.T) {
	for _, tt := range []struct{ n, d, offset int }{
		{5, 2, 0}, {5, 2, 3}, {7, 3, 1}, {4, 3, 0}, {6, 1, 5}, {3, 2, 2},
	} {
		e := inRegular(tt.n, tt.d, tt.offset)
		for v := 0; v < tt.n; v++ {
			if got := e.InDegree(v); got != tt.d {
				t.Errorf("InRegular(%d,%d,%d): InDegree(%d) = %d, want %d",
					tt.n, tt.d, tt.offset, v, got, tt.d)
			}
			if e.Has(v, v) {
				t.Errorf("InRegular(%d,%d,%d): self-loop at %d", tt.n, tt.d, tt.offset, v)
			}
		}
	}
	mustPanic(t, func() { inRegular(5, 5, 0) })
	mustPanic(t, func() { inRegular(5, -1, 0) })
}

func TestInRegularRotationChangesNeighbors(t *testing.T) {
	// Consecutive offsets must rotate the in-neighbor sets; over n/d
	// rounds every node should accumulate all n−1 distinct neighbors.
	n, d := 7, 2
	tr := make(Trace, 4)
	for r := range tr {
		tr[r] = inRegular(n, d, (r*d)%n)
	}
	// 4 rounds × 2 fresh in-neighbors = 8 > 6, but overlaps cap at 6.
	if got := MaxDynaDegree(tr, allNodes(n), 4); got < 6 {
		t.Errorf("4-round union degree = %d, want n−1 = 6 (rotation too slow)", got)
	}
}

func TestGroupComplete(t *testing.T) {
	e := GroupComplete(6, []int{0, 1, 2}, []int{3, 4})
	if e.Len() != 6+2 {
		t.Errorf("Len = %d, want 8", e.Len())
	}
	if !e.Has(0, 2) || !e.Has(4, 3) {
		t.Error("intra-group edges missing")
	}
	if e.Has(2, 3) || e.Has(3, 0) {
		t.Error("cross-group edge present")
	}
	if e.InDegree(5) != 0 {
		t.Error("ungrouped node should be isolated")
	}
}
