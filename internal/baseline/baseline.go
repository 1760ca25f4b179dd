// Package baseline implements the comparison algorithms the paper
// positions DAC/DBAC against (§I, §IV, §VII):
//
//   - ReliableIterated — classical crash-tolerant iterated averaging in
//     the style of Dolev et al. [13]: correct only when every round
//     reliably delivers a quorum, i.e. it assumes away the message
//     adversary.
//   - BACReliable — the reliable-channel Byzantine averaging algorithm
//     (Dolev-Lynch-Pinter-Stark-Weihl [14]) DBAC is inspired by.
//   - MegaRound — the "T-round mega-round" strawman from §II-B: it knows
//     T and batches T rounds of messages into one DAC-style update.
//   - FullInfo — the §VII unlimited-bandwidth simulation: piggyback the
//     entire state history so a receiver never misses a same-phase
//     value.
//
// All of them implement core.Process and run under the same engines and
// adversaries as DAC/DBAC, which is what experiment E7 exploits.
package baseline

import (
	"fmt"
	"sort"

	"anondyn/internal/core"
)

// ReliableIterated is round-synchronous iterated averaging: every round,
// average the extremes of all values received this round (plus own).
// Under a complete reliable graph its range halves per round; under a
// message adversary it has no quorum discipline at all, so it can
// converge to different values in different components — the motivating
// failure DAC fixes.
type ReliableIterated struct {
	rounds int // decide after this many rounds (log2(1/ε) on reliable graphs)

	v     float64
	round int
	min   float64
	max   float64

	decided  bool
	decision float64
}

var _ core.Process = (*ReliableIterated)(nil)

// NewReliableIterated builds a node deciding after ⌈log₂(1/eps)⌉ rounds.
func NewReliableIterated(n int, input, eps float64) (*ReliableIterated, error) {
	if err := core.ValidateInput(input); err != nil {
		return nil, err
	}
	if err := core.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	r := &ReliableIterated{rounds: core.PEndDAC(eps)}
	r.Reinit(input)
	return r, nil
}

// Reinit implements core.Process.
func (r *ReliableIterated) Reinit(input float64) {
	r.v, r.round = input, 0
	r.min, r.max = input, input
	r.decided, r.decision = false, 0
}

// Broadcast implements core.Process.
func (r *ReliableIterated) Broadcast() core.Message {
	return core.Message{Value: r.v, Phase: r.round}
}

// DeliverAll implements core.Process: track the extremes of this
// round's messages regardless of their phase tags (the algorithm trusts
// the synchronous reliable network to keep everyone in lock-step).
func (r *ReliableIterated) DeliverAll(ds []core.Delivery) {
	for i := range ds {
		v := ds[i].Msg.Value
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
}

// EndRound implements core.Process: average the extremes and advance.
func (r *ReliableIterated) EndRound() {
	r.v = (r.min + r.max) / 2
	r.round++
	r.min, r.max = r.v, r.v
	if !r.decided && r.round >= r.rounds {
		r.decided = true
		r.decision = r.v
	}
}

// Output implements core.Process.
func (r *ReliableIterated) Output() (float64, bool) { return r.decision, r.decided }

// Phase implements core.Process (round count doubles as phase).
func (r *ReliableIterated) Phase() int { return r.round }

// Value implements core.Process.
func (r *ReliableIterated) Value() float64 { return r.v }

// BACReliable is the reliable-channel Byzantine iterated averaging of
// [14]: collect the full round's values, discard the f lowest and f
// highest, and move to the midpoint of the surviving extremes. Sound for
// n ≥ 3f+1 on reliable complete graphs; it has no defense against a
// message adversary (it cannot tell "value trimmed" from "message
// dropped").
type BACReliable struct {
	f      int
	rounds int

	v     float64
	round int
	recv  []float64

	decided  bool
	decision float64
}

var _ core.Process = (*BACReliable)(nil)

// NewBACReliable builds a node deciding after ⌈log₂(1/eps)⌉ rounds.
func NewBACReliable(n, f int, input, eps float64) (*BACReliable, error) {
	if n < 3*f+1 {
		return nil, fmt.Errorf("baseline: BAC needs n ≥ 3f+1, got n=%d f=%d", n, f)
	}
	if err := core.ValidateInput(input); err != nil {
		return nil, err
	}
	if err := core.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	b := &BACReliable{f: f, rounds: core.PEndDAC(eps)}
	b.Reinit(input)
	return b, nil
}

// Reinit implements core.Process.
func (b *BACReliable) Reinit(input float64) {
	b.v, b.round = input, 0
	b.recv = b.recv[:0]
	b.decided, b.decision = false, 0
}

// Broadcast implements core.Process.
func (b *BACReliable) Broadcast() core.Message {
	return core.Message{Value: b.v, Phase: b.round}
}

// DeliverAll implements core.Process.
func (b *BACReliable) DeliverAll(ds []core.Delivery) {
	for i := range ds {
		b.recv = append(b.recv, ds[i].Msg.Value)
	}
}

// EndRound implements core.Process: trimmed-midpoint update.
func (b *BACReliable) EndRound() {
	vals := append(b.recv, b.v) // own value always present
	sort.Float64s(vals)
	if len(vals) > 2*b.f {
		vals = vals[b.f : len(vals)-b.f]
	}
	b.v = (vals[0] + vals[len(vals)-1]) / 2
	b.recv = b.recv[:0]
	b.round++
	if !b.decided && b.round >= b.rounds {
		b.decided = true
		b.decision = b.v
	}
}

// Output implements core.Process.
func (b *BACReliable) Output() (float64, bool) { return b.decision, b.decided }

// Phase implements core.Process.
func (b *BACReliable) Phase() int { return b.round }

// Value implements core.Process.
func (b *BACReliable) Value() float64 { return b.v }

// MegaRound is the §II-B strawman: it knows the stability parameter T,
// treats each aligned block of T rounds as one mega-round, collects the
// distinct-port values heard anywhere in the block, and performs a
// DAC-style midpoint update at the block boundary when a quorum of
// ⌊n/2⌋+1 distinct senders (self included) was heard. It needs T as an
// input — exactly what DAC's jump rule makes unnecessary — and it wastes
// most of each block when messages arrive early.
type MegaRound struct {
	n, t     int
	selfPort int
	pEnd     int
	v        float64
	phase    int
	round    int
	heard    []bool
	nheard   int
	min      float64
	max      float64

	decided  bool
	decision float64
}

var _ core.Process = (*MegaRound)(nil)

// NewMegaRound builds a node that knows block length t ≥ 1.
func NewMegaRound(n, t, selfPort int, input, eps float64) (*MegaRound, error) {
	if t < 1 {
		return nil, fmt.Errorf("baseline: mega-round T must be ≥ 1, got %d", t)
	}
	if selfPort < 0 || selfPort >= n {
		return nil, fmt.Errorf("baseline: self port %d out of range [0,%d)", selfPort, n)
	}
	if err := core.ValidateInput(input); err != nil {
		return nil, err
	}
	if err := core.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	m := &MegaRound{n: n, t: t, selfPort: selfPort, pEnd: core.PEndDAC(eps), heard: make([]bool, n)}
	m.Reinit(input)
	return m, nil
}

// Reinit implements core.Process.
func (m *MegaRound) Reinit(input float64) {
	m.v, m.phase, m.round = input, 0, 0
	m.decided, m.decision = false, 0
	m.openBlock()
}

// Broadcast implements core.Process.
func (m *MegaRound) Broadcast() core.Message { return core.Message{Value: m.v, Phase: m.phase} }

// DeliverAll implements core.Process: collect distinct-port values for
// the current mega-round, accepting only current-phase messages (the
// algorithm has no jump rule).
func (m *MegaRound) DeliverAll(ds []core.Delivery) {
	for i := range ds {
		d := &ds[i]
		if d.Msg.Phase != m.phase || m.heard[d.Port] {
			continue
		}
		m.heard[d.Port] = true
		m.nheard++
		if d.Msg.Value < m.min {
			m.min = d.Msg.Value
		}
		if d.Msg.Value > m.max {
			m.max = d.Msg.Value
		}
	}
}

// EndRound implements core.Process: update at block boundaries.
func (m *MegaRound) EndRound() {
	m.round++
	if m.round%m.t != 0 {
		return
	}
	if m.phase < m.pEnd && m.nheard >= core.CrashQuorum(m.n) {
		m.v = (m.min + m.max) / 2
		m.phase++
	}
	m.openBlock()
}

// openBlock starts a mega-round: only self heard, both extremes at v.
func (m *MegaRound) openBlock() {
	clear(m.heard)
	m.heard[m.selfPort] = true
	m.nheard = 1
	m.min, m.max = m.v, m.v
	m.maybeDecide()
}

// Output implements core.Process.
func (m *MegaRound) Output() (float64, bool) { return m.decision, m.decided }

// Phase implements core.Process.
func (m *MegaRound) Phase() int { return m.phase }

// Value implements core.Process.
func (m *MegaRound) Value() float64 { return m.v }

func (m *MegaRound) maybeDecide() {
	if !m.decided && m.phase >= m.pEnd {
		m.decided = true
		m.decision = m.v
	}
}
