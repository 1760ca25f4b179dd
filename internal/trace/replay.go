package trace

import (
	"fmt"

	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// Replay is a message adversary reconstructed from a recorded event log:
// it re-issues the exact per-round edge sets of the original execution.
// Replaying a run of a deterministic algorithm with the same inputs,
// ports, and fault behavior reproduces it bit for bit — asserted by the
// replay tests.
type Replay struct {
	n    int
	sets []*network.EdgeSet
}

// NewReplay builds a replay adversary from a log containing round events
// for rounds 0, 1, 2, … in order.
func NewReplay(n int, events []Event) (*Replay, error) {
	r := &Replay{n: n}
	for _, e := range events {
		if e.Kind != KindRound {
			continue
		}
		if e.Round != len(r.sets) {
			return nil, fmt.Errorf("trace: round event %d out of order (want %d)", e.Round, len(r.sets))
		}
		es := network.NewEdgeSet(n)
		for _, pair := range e.Edges {
			es.Add(pair[0], pair[1])
		}
		r.sets = append(r.sets, es)
	}
	if len(r.sets) == 0 {
		return nil, fmt.Errorf("trace: no round events to replay")
	}
	return r, nil
}

// Name identifies the adversary.
func (r *Replay) Name() string { return fmt.Sprintf("replay(%d rounds)", len(r.sets)) }

// Edges returns the recorded E(t). Rounds beyond the recording reuse the
// final set, which keeps post-decision rounds well-defined. The view is
// unused: a replay is oblivious by construction.
func (r *Replay) Edges(t int, _ adversary.View) *network.EdgeSet {
	if t < len(r.sets) {
		return r.sets[t]
	}
	return r.sets[len(r.sets)-1]
}

// Oblivious implements adversary.Oblivious: the view is never read, the
// recorded sets are a pure function of the round number.
func (r *Replay) Oblivious() bool { return true }

// Replay deliberately does not implement adversary.InPlace: it returns
// recorded sets by pointer, which the engine's fallback path consumes
// without allocating or copying.
var (
	_ adversary.Adversary = (*Replay)(nil)
	_ adversary.Oblivious = (*Replay)(nil)
)

// Trace exposes the recorded edge sets as a network.Trace for offline
// analysis (dynaDegree checking of a finished run).
func (r *Replay) Trace() network.Trace {
	tr := make(network.Trace, len(r.sets))
	copy(tr, r.sets)
	return tr
}
