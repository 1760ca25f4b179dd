package core

import "fmt"

// HistEntry is one piggybacked older state ⟨v, p⟩ carried alongside the
// current state in the §VII bandwidth/convergence trade-off extension.
type HistEntry struct {
	Value float64
	Phase int
}

// DBACPiggyback is the §VII extension of DBAC: each broadcast carries the
// node's current state plus its states from up to K previous phases.
//
// The paper leaves the construction open ("DBAC can improve the
// convergence rate by piggybacking a limited set of old messages"); the
// design implemented here is:
//
//   - a sender remembers the state value it held in each of its last K
//     phases and piggybacks those ⟨v, q⟩ pairs;
//   - a receiver in phase p prefers the entry with phase exactly p when
//     one is present — so as long as the phase skew between sender and
//     receiver is ≤ K, every value used in an update comes from the
//     receiver's own phase, recovering the classical same-phase analysis
//     (rate 1/2) of reliable-channel algorithms;
//   - when the sender is more than K phases ahead, the receiver falls
//     back to plain DBAC behavior and uses the sender's current value
//     (phase ≥ p, admissible by Algorithm 2's rule).
//
// K = 0 degenerates to exactly DBAC. With unlimited K this is the
// full-information simulation the paper sketches.
type DBACPiggyback struct {
	inner *DBAC
	k     int

	// hist[q mod (k+1)] is the state this node held in phase q; a ring
	// indexed by phase so only the last k+1 phases are retained.
	hist []HistEntry
}

var _ Process = (*DBACPiggyback)(nil)

// NewDBACPiggyback builds a piggybacking DBAC node with window k ≥ 0.
func NewDBACPiggyback(n, f, selfPort, k int, input, eps float64) (*DBACPiggyback, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative piggyback window %d", k)
	}
	inner, err := NewDBAC(n, f, selfPort, input, eps)
	if err != nil {
		return nil, err
	}
	return newPB(inner, k), nil
}

// NewDBACPiggybackPhases is the explicit-phase-budget variant (see
// NewDBACPhases).
func NewDBACPiggybackPhases(n, f, selfPort, k, pEnd int, input float64) (*DBACPiggyback, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative piggyback window %d", k)
	}
	inner, err := NewDBACPhases(n, f, selfPort, pEnd, input)
	if err != nil {
		return nil, err
	}
	return newPB(inner, k), nil
}

func newPB(inner *DBAC, k int) *DBACPiggyback {
	pb := &DBACPiggyback{
		inner: inner,
		k:     k,
		hist:  make([]HistEntry, k+1),
	}
	for i := range pb.hist {
		pb.hist[i] = HistEntry{Phase: -1} // unset
	}
	pb.hist[0] = HistEntry{Value: inner.v, Phase: 0}
	return pb
}

// Reinit implements Process: return to the freshly-constructed
// state with a new input, keeping the window and the inner DBAC's
// parameters. Mirrors newPB's initialization exactly.
func (pb *DBACPiggyback) Reinit(input float64) {
	pb.inner.Reinit(input)
	for i := range pb.hist {
		pb.hist[i] = HistEntry{Phase: -1}
	}
	pb.hist[0] = HistEntry{Value: input, Phase: 0}
}

// Broadcast implements Process: the current state plus up to K prior
// phase states in the History field.
func (pb *DBACPiggyback) Broadcast() Message {
	m := pb.inner.Broadcast()
	if pb.k == 0 {
		return m
	}
	p := pb.inner.p
	hist := make([]HistEntry, 0, pb.k)
	for q := p - 1; q >= 0 && q >= p-pb.k; q-- {
		e := pb.hist[q%(pb.k+1)]
		if e.Phase == q {
			hist = append(hist, e)
		}
	}
	m.History = hist
	return m
}

// deliver is DeliverAll's body for one message, preferring the
// same-phase piggybacked entry; the message stays where the caller holds
// it (DeliverAll passes the slice element).
func (pb *DBACPiggyback) deliver(port int, m *Message) {
	p := pb.inner.p
	if m.Phase > p && !pb.inner.has(port) {
		// Sender is ahead: look for the entry matching our phase exactly.
		for _, e := range m.History {
			if e.Phase == p {
				pb.forward(port, e.Value, e.Phase)
				return
			}
		}
	}
	// The current value: it has the receiver's phase, the port is
	// already counted, or the skew exceeds K. A sender behind us has no
	// usable entry either (every history phase is even older); plain
	// DBAC handles each case.
	pb.forward(port, m.Value, m.Phase)
}

// forward hands a (possibly rewritten) state to the inner DBAC and
// refreshes the history ring after any phase advance.
func (pb *DBACPiggyback) forward(port int, value float64, phase int) {
	before := pb.inner.p
	pb.inner.deliver(port, value, phase)
	if pb.inner.p != before {
		pb.hist[pb.inner.p%(pb.k+1)] = HistEntry{Value: pb.inner.v, Phase: pb.inner.p}
	}
}

// EndRound implements Process.
func (pb *DBACPiggyback) EndRound() {}

// Output implements Process.
func (pb *DBACPiggyback) Output() (float64, bool) { return pb.inner.Output() }

// Phase implements Process.
func (pb *DBACPiggyback) Phase() int { return pb.inner.Phase() }

// Value implements Process.
func (pb *DBACPiggyback) Value() float64 { return pb.inner.Value() }
