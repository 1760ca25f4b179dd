package network

import (
	"reflect"
	"testing"
)

func TestReachableFrom(t *testing.T) {
	e := NewEdgeSet(4)
	e.Add(0, 1)
	e.Add(1, 2)
	got := ReachableFrom(e, 0)
	want := []bool{true, true, true, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReachableFrom(0) = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(ReachableFrom(e, 3), []bool{false, false, false, true}) {
		t.Error("isolated node should only reach itself")
	}
}

func TestRootsAndRootedSpanningTree(t *testing.T) {
	// A directed path 0→1→2: only 0 is a root.
	path := NewEdgeSet(3)
	path.Add(0, 1)
	path.Add(1, 2)
	if !IsRoot(path, 0) || IsRoot(path, 1) || IsRoot(path, 2) {
		t.Error("path's only root is node 0")
	}
	if !HasRootedSpanningTree(path) {
		t.Error("path has a root")
	}
	// Two disjoint components: no root.
	split := NewEdgeSet(4)
	split.Add(0, 1)
	split.Add(2, 3)
	if HasRootedSpanningTree(split) {
		t.Error("disconnected graph has no root")
	}
	// The empty graph on >1 node: no root.
	if HasRootedSpanningTree(NewEdgeSet(3)) {
		t.Error("empty graph has no root")
	}
	// A single node is trivially a root of itself.
	if !HasRootedSpanningTree(NewEdgeSet(1)) {
		t.Error("singleton should be rooted")
	}
}

func TestStronglyConnected(t *testing.T) {
	if !StronglyConnected(Ring(5)) {
		t.Error("directed ring is strongly connected")
	}
	path := NewEdgeSet(3)
	path.Add(0, 1)
	path.Add(1, 2)
	if StronglyConnected(path) {
		t.Error("path is not strongly connected")
	}
	if !StronglyConnected(NewEdgeSet(1)) {
		t.Error("singleton is strongly connected")
	}
	if !StronglyConnected(Complete(4)) {
		t.Error("complete graph is strongly connected")
	}
}

func TestIntersectWith(t *testing.T) {
	a := NewEdgeSet(3)
	a.Add(0, 1)
	a.Add(1, 2)
	b := NewEdgeSet(3)
	b.Add(0, 1)
	b.Add(2, 0)
	a.IntersectWith(b)
	if !a.Has(0, 1) || a.Has(1, 2) || a.Has(2, 0) {
		t.Errorf("intersection wrong: %v", a.Edges())
	}
	mustPanic(t, func() { a.IntersectWith(NewEdgeSet(4)) })
}

// TestFig1SeparatesStabilityProperties is the executable §II-B
// comparison: Figure 1's dynamic graph satisfies (2,1)-dynaDegree but
// has rootless rounds (so the rooted-spanning-tree property of
// [10],[17],[38] fails) and is not even 1-interval connected (so the
// T-interval connectivity of [22] fails for every T — the empty odd
// rounds kill any stable spanning subgraph).
func TestFig1SeparatesStabilityProperties(t *testing.T) {
	tr := fig1Trace(8)
	ff := allNodes(3)
	if MaxDynaDegree(tr, ff, 2) < 1 {
		t.Fatal("(2,1)-dynaDegree must hold")
	}
	if EveryRoundRooted(tr) {
		t.Error("odd rounds are empty: rooted-spanning-tree must fail")
	}
	// Even rounds alone ARE rooted (node 1 reaches 0 and 2).
	if !HasRootedSpanningTree(tr[0]) {
		t.Error("the even-round graph is rooted via node 1")
	}
	for _, T := range []int{1, 2, 4} {
		if TIntervalConnected(tr, T) {
			t.Errorf("%d-interval connectivity should fail (empty rounds)", T)
		}
	}
}

// TestRootedButLowDynaDegree shows the separation in the other
// direction: a star rotating its hub is rooted every round, yet gives
// leaf nodes only 1 incoming link per round — (1,1)-dynaDegree, far
// below the consensus threshold. Neither property subsumes the other.
func TestRootedButLowDynaDegree(t *testing.T) {
	n := 6
	tr := make(Trace, 4)
	for r := range tr {
		e := NewEdgeSet(n)
		hub := r % n
		for v := 0; v < n; v++ {
			if v != hub {
				e.Add(hub, v) // out-star: hub reaches everyone directly
			}
		}
		e.Add((hub+1)%n, hub) // one return link so the hub also hears someone
		tr[r] = e
	}
	if !EveryRoundRooted(tr) {
		t.Fatal("out-star is rooted at the hub")
	}
	if got := MaxDynaDegree(tr, allNodes(n), 1); got != 1 {
		t.Errorf("per-round dynaDegree = %d, want 1", got)
	}
}

func TestTIntervalConnectedStableGraph(t *testing.T) {
	// A static strongly-connected graph is T-interval connected for all T.
	tr := Trace{Ring(4), Ring(4), Ring(4)}
	for _, T := range []int{1, 2, 3} {
		if !TIntervalConnected(tr, T) {
			t.Errorf("static ring should be %d-interval connected", T)
		}
	}
	// Alternating between two edge-disjoint rings: each round is
	// strongly connected, but no link is stable across two rounds.
	a := Ring(4)
	b := NewEdgeSet(4)
	b.Add(0, 3)
	b.Add(3, 2)
	b.Add(2, 1)
	b.Add(1, 0)
	alt := Trace{a, b, a, b}
	if !TIntervalConnected(alt, 1) {
		t.Error("each round alone is strongly connected")
	}
	if TIntervalConnected(alt, 2) {
		t.Error("no stable subgraph across rounds: 2-interval must fail")
	}
	// Vacuous window.
	if !TIntervalConnected(Trace{a}, 2) {
		t.Error("window larger than trace is vacuous")
	}
	mustPanic(t, func() { TIntervalConnected(alt, 0) })
}
