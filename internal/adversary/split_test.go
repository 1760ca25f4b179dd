package adversary

import (
	"testing"

	"anondyn/internal/network"
)

func TestNewHalves(t *testing.T) {
	for _, n := range []int{4, 5, 7, 10} {
		a, err := NewHalves(n)
		if err != nil {
			t.Fatal(err)
		}
		e := a.Edges(0, SizeView(n))
		half := (n + 1) / 2
		// No cross links.
		for u := 0; u < half; u++ {
			for v := half; v < n; v++ {
				if e.Has(u, v) || e.Has(v, u) {
					t.Errorf("n=%d: cross link %d↔%d", n, u, v)
				}
			}
		}
		// Theorem 9's degree: the smaller half has ⌊n/2⌋ members, so its
		// nodes have exactly ⌊n/2⌋−1 in-neighbors — the worst case.
		tr := render(a, n, 3)
		got := network.MaxDynaDegree(tr, allNodes(n), 1)
		if want := n/2 - 1; got != want {
			t.Errorf("n=%d: degree = %d, want %d", n, got, want)
		}
		// The whole point: degree < ⌊n/2⌋ (the Theorem 9 threshold).
		if got >= n/2 {
			t.Errorf("n=%d: split degree %d reaches the ⌊n/2⌋ threshold", n, got)
		}
	}
	if _, err := NewHalves(1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestNewSplitGroupsValidation(t *testing.T) {
	if _, err := NewSplitGroups(4, []int{0, 1}, []int{1, 2}); err == nil {
		t.Error("overlapping groups accepted")
	}
	if _, err := NewSplitGroups(4, []int{0, 5}); err == nil {
		t.Error("out-of-range node accepted")
	}
	a, err := NewSplitGroups(5, []int{0, 1}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	e := a.Edges(0, SizeView(5))
	if e.InDegree(4) != 0 || e.OutDegree(4) != 0 {
		t.Error("ungrouped node should be isolated")
	}
}

func TestByzSplitLayout(t *testing.T) {
	// n=15, f=3: groupSize = ⌊24/2⌋ = 12, overlap = 9 = 3f.
	l, err := NewByzSplitLayout(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.GroupA) != 12 || len(l.GroupB) != 12 {
		t.Errorf("group sizes %d/%d, want 12/12", len(l.GroupA), len(l.GroupB))
	}
	if len(l.Byzantine) != 3 {
		t.Errorf("byzantine count = %d, want 3", len(l.Byzantine))
	}
	// Byzantine nodes are the middle f: ⌊(15−3)/2⌋=6 … ⌊(15+3)/2⌋−1=8.
	for i, want := range []int{6, 7, 8} {
		if l.Byzantine[i] != want {
			t.Errorf("byzantine[%d] = %d, want %d", i, l.Byzantine[i], want)
		}
	}
	// Inputs: 0 for i<6, 1 for i≥9; Byzantine in between irrelevant.
	if l.Input(5) != 0 || l.Input(9) != 1 {
		t.Error("inputs wrong")
	}
	// Receivers: A-receivers are the input-0 fault-free nodes 0..5,
	// B-receivers 9..14.
	if len(l.AReceivers) != 6 || l.AReceivers[5] != 5 {
		t.Errorf("AReceivers = %v", l.AReceivers)
	}
	if len(l.BReceivers) != 6 || l.BReceivers[0] != 9 {
		t.Errorf("BReceivers = %v", l.BReceivers)
	}
	// Every fault-free node's per-round degree is exactly one below the
	// Theorem 10 threshold ⌊(n+3f)/2⌋ = 12.
	if l.MinFaultFreeDegree() != 11 {
		t.Errorf("degree = %d, want 11", l.MinFaultFreeDegree())
	}
	adv := l.Adversary()
	e := adv.Edges(0, SizeView(15))
	var ff []int
	for i := 0; i < 15; i++ {
		if !l.IsByzantine(i) {
			ff = append(ff, i)
		}
	}
	for _, v := range ff {
		if got := e.InDegree(v); got != 11 {
			t.Errorf("node %d in-degree = %d, want 11", v, got)
		}
	}
	// A-receivers hear only group A (ids < 12), B-receivers only ≥ 3.
	for _, v := range l.AReceivers {
		for _, u := range e.InNeighbors(v) {
			if u >= 12 {
				t.Errorf("A-receiver %d hears non-A node %d", v, u)
			}
		}
	}
	for _, v := range l.BReceivers {
		for _, u := range e.InNeighbors(v) {
			if u < 3 {
				t.Errorf("B-receiver %d hears non-B node %d", v, u)
			}
		}
	}
}

func TestByzSplitLayoutValidation(t *testing.T) {
	if _, err := NewByzSplitLayout(10, 0); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := NewByzSplitLayout(3, 1); err == nil {
		t.Error("n < 3f+1 accepted")
	}
	if _, err := NewByzSplitLayout(4, 1); err != nil {
		t.Errorf("n=3f+1 rejected: %v", err)
	}
}

// IsByzantine reports whether node i is Byzantine in the scenario.
func (l *ByzSplitLayout) IsByzantine(i int) bool {
	return i >= (l.N-l.F)/2 && i < (l.N+l.F)/2
}
