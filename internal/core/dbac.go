package core

import "fmt"

// DBAC is Algorithm 2 — Dynamic Byzantine Approximate Consensus. It is
// correct when n ≥ 5f+1 and the dynamic graph satisfies
// (T, ⌊(n+3f)/2⌋)-dynaDegree (§V), with per-phase convergence rate at
// most 1 − 2⁻ⁿ (Theorem 7).
//
// Unlike DAC, nodes never skip phases. A node in phase p counts every
// first message per port whose phase is ≥ p; once ⌊(n+3f)/2⌋+1 ports are
// counted (self included) it updates to the midpoint of the (f+1)-st
// lowest and (f+1)-st highest values collected, which keeps the new state
// inside the fault-free interval no matter what the ≤ f Byzantine values
// were (Lemma 5).
type DBAC struct {
	n      int
	f      int
	pEnd   int
	quorum int

	v float64
	p int

	r    []bool // r[port] — port already counted for the current phase
	nr   int
	low  bounded // f+1 smallest received values this phase
	high bounded // f+1 largest received values this phase, negated

	selfPort int

	decided  bool
	decision float64
}

var _ Process = (*DBAC)(nil)

// NewDBAC builds a DBAC node for a system of n nodes with at most f
// Byzantine faults, agreement parameter eps, and initial value input.
func NewDBAC(n, f, selfPort int, input, eps float64) (*DBAC, error) {
	if err := ValidateByz(n, f); err != nil {
		return nil, err
	}
	if selfPort < 0 || selfPort >= n {
		return nil, fmt.Errorf("core: self port %d out of range [0,%d)", selfPort, n)
	}
	if err := ValidateInput(input); err != nil {
		return nil, err
	}
	if err := ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	return newDBACWithPEnd(n, f, selfPort, input, PEndDBAC(eps, n))
}

// NewDBACPhases builds a DBAC node that outputs after an explicit number
// of phases instead of the (extremely loose) Equation-6 bound. Used by
// measurement runs (E5, E8) that stop once the observed range is ≤ ε.
func NewDBACPhases(n, f, selfPort, pEnd int, input float64) (*DBAC, error) {
	if err := ValidateByz(n, f); err != nil {
		return nil, err
	}
	if selfPort < 0 || selfPort >= n {
		return nil, fmt.Errorf("core: self port %d out of range [0,%d)", selfPort, n)
	}
	if err := ValidateInput(input); err != nil {
		return nil, err
	}
	if pEnd < 0 {
		return nil, fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	return newDBACWithPEnd(n, f, selfPort, input, pEnd)
}

func newDBACWithPEnd(n, f, selfPort int, input float64, pEnd int) (*DBAC, error) {
	d := &DBAC{
		n:        n,
		f:        f,
		pEnd:     pEnd,
		quorum:   ByzQuorum(n, f),
		v:        input,
		r:        make([]bool, n),
		low:      newBounded(f + 1),
		high:     newBounded(f + 1),
		selfPort: selfPort,
	}
	// Reliable self-delivery: the node's own state is always among the
	// values it counts (R[i]=1) and among those it stores in R_low and
	// R_high. The pseudo-code leaves this implicit: a node never receives
	// its own message over a link, yet the quorum of ⌊(n+3f)/2⌋+1 counts
	// it, so its value must sit in the multiset the update trims.
	d.r[selfPort] = true
	d.nr = 1
	d.low.add(input)
	d.high.add(-input)
	d.maybeDecide()
	return d, nil
}

// Broadcast implements Process (Algorithm 2 line 2).
func (d *DBAC) Broadcast() Message { return Message{Value: d.v, Phase: d.p} }

// Deliver is DeliverAll for one message (Algorithm 2 lines 4–11).
func (d *DBAC) Deliver(dl Delivery) { d.deliver(dl.Port, dl.Msg.Value, dl.Msg.Phase) }

// deliver is the body of Deliver on the two fields Algorithm 2 reads,
// so DeliverAll and the piggyback wrapper hand them over without
// copying a Delivery per call.
func (d *DBAC) deliver(port int, value float64, phase int) {
	if phase >= d.p && !d.r[port] {
		d.r[port] = true
		d.nr++
		d.low.add(value)
		d.high.add(-value)
	}
	if d.p < d.pEnd && d.nr >= d.quorum {
		lo, hi := d.low.max(), -d.high.max() // max(R_low), min(R_high)
		d.v = (lo + hi) / 2
		d.p++
		d.reset()
	}
	d.maybeDecide()
}

// EndRound implements Process; DBAC is edge-triggered.
func (d *DBAC) EndRound() {}

// Output implements Process (lines 12–13).
func (d *DBAC) Output() (float64, bool) { return d.decision, d.decided }

// Phase implements Process.
func (d *DBAC) Phase() int { return d.p }

// Value implements Process.
func (d *DBAC) Value() float64 { return d.v }

// NewDBACCustom builds a DBAC node with explicit output phase and
// quorum, without enforcing n ≥ 5f+1. It exists solely for the necessity
// experiment (E6), which models hypothetical algorithms that terminate
// below the ⌊(n+3f)/2⌋+1 quorum and then violate agreement, as Theorem
// 10 predicts. Production users want NewDBAC.
func NewDBACCustom(n, f, selfPort, pEnd, quorum int, input float64) (*DBAC, error) {
	if n < 1 || f < 0 || f >= n {
		return nil, fmt.Errorf("%w: n=%d f=%d", ErrResilience, n, f)
	}
	if selfPort < 0 || selfPort >= n {
		return nil, fmt.Errorf("core: self port %d out of range [0,%d)", selfPort, n)
	}
	if err := ValidateInput(input); err != nil {
		return nil, err
	}
	if pEnd < 0 {
		return nil, fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	if quorum < 1 || quorum > n {
		return nil, fmt.Errorf("core: quorum %d out of range [1,%d]", quorum, n)
	}
	d, err := newDBACWithPEnd(n, f, selfPort, input, pEnd)
	if err != nil {
		return nil, err
	}
	d.quorum = quorum
	return d, nil
}

// Reinit implements Process: return to the freshly-constructed
// state with a new input, keeping n, f, pEnd, quorum and the self port.
// Mirrors newDBACWithPEnd's initialization exactly.
func (d *DBAC) Reinit(input float64) {
	d.v = input
	d.p = 0
	for i := range d.r {
		d.r[i] = false
	}
	d.r[d.selfPort] = true
	d.nr = 1
	d.low.clear()
	d.high.clear()
	d.low.add(input)
	d.high.add(-input)
	d.decided = false
	d.decision = 0
	d.maybeDecide()
}

// reset is RESET() of Algorithm 2, plus the self-delivery store.
func (d *DBAC) reset() {
	for i := range d.r {
		d.r[i] = false
	}
	d.r[d.selfPort] = true
	d.nr = 1
	d.low.clear()
	d.high.clear()
	d.low.add(d.v)
	d.high.add(-d.v)
}

func (d *DBAC) maybeDecide() {
	if !d.decided && d.p >= d.pEnd {
		d.decided = true
		d.decision = d.v
	}
}
