package adversary

import (
	"testing"

	"anondyn/internal/network"
)

func TestIsolateDegree(t *testing.T) {
	a, err := NewIsolate(2)
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	e := a.Edges(0, SizeView(n))
	for v := 0; v < n; v++ {
		want := n - 2 // complete minus the victim's link (minus self)
		if v == 2 {
			want = n - 1 // the victim still hears everyone
		}
		if got := e.InDegree(v); got != want {
			t.Errorf("InDegree(%d) = %d, want %d", v, got, want)
		}
		if v != 2 && e.Has(2, v) {
			t.Errorf("victim's link 2→%d not suppressed", v)
		}
	}
	// The Corollary 1 regime: (1, n−2)-dynaDegree holds.
	tr := render(a, n, 5)
	if network.MaxDynaDegree(tr, allNodes(n), 1) < n-2 {
		t.Error("isolate must satisfy (1, n−2)-dynaDegree")
	}
	if network.MaxDynaDegree(tr, allNodes(n), 1) >= n-1 {
		t.Error("isolate should not satisfy (1, n−1)")
	}
	if a.Victim() != 2 {
		t.Errorf("Victim = %d", a.Victim())
	}
	if _, err := NewIsolate(-1); err == nil {
		t.Error("negative victim accepted")
	}
}

func TestIsolateVictimBeyondN(t *testing.T) {
	a, err := NewIsolate(10)
	if err != nil {
		t.Fatal(err)
	}
	// Victim outside the node range: nothing to suppress.
	e := a.Edges(0, SizeView(4))
	if e.Len() != 12 {
		t.Errorf("edges = %d, want complete 12", e.Len())
	}
}

func TestChaseMinFollowsMinimum(t *testing.T) {
	a := NewChaseMin()
	view := valueView{0.5, 0.2, 0.9, 0.2}
	e := a.Edges(0, view)
	// Node 1 is the smallest-ID minimum holder: its out-links must be
	// gone, everyone else's intact.
	for v := 0; v < 4; v++ {
		if v != 1 && e.Has(1, v) {
			t.Errorf("min holder's link 1→%d survived", v)
		}
	}
	if !e.Has(3, 0) || !e.Has(2, 1) {
		t.Error("non-minimum links suppressed")
	}
	// If the minimum moves, the suppression follows.
	view2 := valueView{0.1, 0.2, 0.9, 0.2}
	e2 := a.Edges(1, view2)
	if e2.Has(0, 1) {
		t.Error("new min holder's links not suppressed")
	}
	if !e2.Has(1, 2) {
		t.Error("old holder still suppressed")
	}
}

func TestProbabilisticExtremes(t *testing.T) {
	n := 6
	p0, err := NewProbabilistic(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p0.Edges(0, SizeView(n)).Len(); got != 0 {
		t.Errorf("p=0 produced %d edges", got)
	}
	p1, err := NewProbabilistic(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Edges(0, SizeView(n)).Len(); got != n*(n-1) {
		t.Errorf("p=1 produced %d edges, want %d", got, n*(n-1))
	}
	if _, err := NewProbabilistic(1.5, 1); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := NewProbabilistic(-0.1, 1); err == nil {
		t.Error("p<0 accepted")
	}
}

func TestProbabilisticDensityAndDeterminism(t *testing.T) {
	n, rounds, p := 10, 200, 0.3
	a1, _ := NewProbabilistic(p, 77)
	a2, _ := NewProbabilistic(p, 77)
	total := 0
	for r := 0; r < rounds; r++ {
		e1 := a1.Edges(r, SizeView(n))
		e2 := a2.Edges(r, SizeView(n))
		if !e1.Equal(e2) {
			t.Fatalf("round %d differs across same-seed instances", r)
		}
		total += e1.Len()
	}
	mean := float64(total) / float64(rounds)
	want := p * float64(n*(n-1))
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean edges/round = %.1f, want ≈ %.1f", mean, want)
	}
}

// Victim returns the suppressed node.
func (a *Isolate) Victim() int { return a.victim }
