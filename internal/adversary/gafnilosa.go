package adversary

import (
	"fmt"

	"anondyn/internal/network"
)

// The Corollary 1 regime: in every round each node may miss ONE of the
// messages sent to it (Gafni & Losa, "Time is not a healer, but it sure
// makes hindsight 20:20" [18]). Both adversaries below satisfy
// (1, n−2)-dynaDegree — each receiver keeps at least n−2 distinct
// incoming links per round — yet suffice to make deterministic binary
// EXACT consensus impossible.

// Isolate is the complete graph minus one chosen node's outgoing links.
// Every receiver misses exactly one message per round (the victim's), so
// the victim's input value never propagates: a minimum-flooding
// algorithm leaves the victim deciding its own input while everyone else
// decides theirs — the executable Corollary 1 counterexample.
type Isolate struct {
	victim int
}

// NewIsolate builds the adversary suppressing one node's outgoing links.
func NewIsolate(victim int) (*Isolate, error) {
	if victim < 0 {
		return nil, fmt.Errorf("adversary: invalid victim %d", victim)
	}
	return &Isolate{victim: victim}, nil
}

// Name implements Adversary.
func (a *Isolate) Name() string { return fmt.Sprintf("isolate(%d)", a.victim) }

// Edges implements Adversary.
func (a *Isolate) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	a.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace.
func (a *Isolate) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	dst.FillComplete()
	if a.victim < n {
		for v := 0; v < n; v++ {
			dst.Remove(a.victim, v)
		}
	}
}

// Oblivious implements the state-independence seam.
func (a *Isolate) Oblivious() bool { return true }

// ChaseMin is the adaptive variant: each round it inspects the current
// state values and suppresses, for every receiver, the incoming link
// from one node currently holding the minimum value. Against flooding
// algorithms this pins the minimum to wherever it started even as the
// holder set would otherwise grow; against DAC it is just another
// (1, n−2) adversary the algorithm must (and does) survive.
type ChaseMin struct{}

// NewChaseMin builds the adaptive minimum-chasing adversary.
func NewChaseMin() ChaseMin { return ChaseMin{} }

// Name implements Adversary.
func (ChaseMin) Name() string { return "chaseMin" }

// Edges implements Adversary.
func (a ChaseMin) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	a.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace.
func (ChaseMin) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	dst.FillComplete()
	// Find the minimum holder with the smallest ID.
	minID, minVal := 0, view.Snapshot(0).Value
	for i := 1; i < n; i++ {
		if v := view.Snapshot(i).Value; v < minVal {
			minID, minVal = i, v
		}
	}
	for v := 0; v < n; v++ {
		dst.Remove(minID, v)
	}
}
