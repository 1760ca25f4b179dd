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

	r    []uint64 // R as a bitset: bit port&63 of word port>>6 set — port already counted this phase
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
	if err := checkNode(n, selfPort, input); err != nil {
		return nil, err
	}
	if err := ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	return newDBAC(n, f, selfPort, PEndDBAC(eps, n), ByzQuorum(n, f), input), nil
}

// NewDBACPhases builds a DBAC node that outputs after an explicit number
// of phases instead of the (extremely loose) Equation-6 bound. Used by
// measurement runs (E5, E8) that stop once the observed range is ≤ ε.
func NewDBACPhases(n, f, selfPort, pEnd int, input float64) (*DBAC, error) {
	if err := ValidateByz(n, f); err != nil {
		return nil, err
	}
	if err := checkNode(n, selfPort, input); err != nil {
		return nil, err
	}
	if pEnd < 0 {
		return nil, fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	return newDBAC(n, f, selfPort, pEnd, ByzQuorum(n, f), input), nil
}

// newDBAC builds one node alone, unchecked.
func newDBAC(n, f, selfPort, pEnd, quorum int, input float64) *DBAC {
	return &buildDBACs(n, f, pEnd, quorum, func(int) int { return selfPort }, []float64{input}, nil)[0]
}

// NewDBACPopulation builds the DBAC nodes of one n = len(inputs) network
// tolerating f Byzantine faults, in node order — node i with self port
// selfPort(i) and input inputs[i], all with output phase pEnd and quorum
// quorum — except the slots skip reports (nil: none), which are left
// zero. It checks 0 ≤ f < n, pEnd ≥ 0 and 1 ≤ quorum ≤ n at the first
// node it builds, then each node's self port and input; an error names
// the node it was found at. It does not check n ≥ 5f+1: the necessity
// experiment (E6) runs populations below it, with quorums below the
// paper's. A caller whose pEnd comes from ε checks ε first, as NewDBAC
// does, and one that wants the paper's bound checks ValidateByz. The
// nodes' R bitsets and extreme lists share three allocations, whatever
// n is.
func NewDBACPopulation(f, pEnd, quorum int, selfPort func(i int) int, inputs []float64, skip func(i int) bool) ([]DBAC, error) {
	n := len(inputs)
	for i, input := range inputs {
		if skip != nil && skip(i) {
			continue
		}
		err := checkDBAC(n, f, pEnd, quorum)
		if err == nil {
			err = checkNode(n, selfPort(i), input)
		}
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return buildDBACs(n, f, pEnd, quorum, selfPort, inputs, skip), nil
}

// checkDBAC checks the parameters a node shares with its population.
func checkDBAC(n, f, pEnd, quorum int) error {
	if n < 1 || f < 0 || f >= n {
		return fmt.Errorf("%w: n=%d f=%d", ErrResilience, n, f)
	}
	if pEnd < 0 {
		return fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	if quorum < 1 || quorum > n {
		return fmt.Errorf("core: quorum %d out of range [1,%d]", quorum, n)
	}
	return nil
}

// checkNode checks a node's own parameters: its self port and input.
func checkNode(n, selfPort int, input float64) error {
	if selfPort < 0 || selfPort >= n {
		return fmt.Errorf("core: self port %d out of range [0,%d)", selfPort, n)
	}
	return ValidateInput(input)
}

// buildDBACs is the one layout rule behind every DBAC constructor: the
// len(inputs) nodes of an n-node network, unchecked, their R bitsets
// carved from one slice and their R_low and R_high slots from another.
func buildDBACs(n, f, pEnd, quorum int, selfPort func(int) int, inputs []float64, skip func(int) bool) []DBAC {
	words, k := (n+63)/64, f+1
	ds := make([]DBAC, len(inputs))
	rs := make([]uint64, len(inputs)*words)
	slots := make([]slot, len(inputs)*2*k)
	for i, input := range inputs {
		if skip != nil && skip(i) {
			continue
		}
		s := slots[2*k*i:]
		ds[i] = DBAC{
			n:        n,
			f:        f,
			pEnd:     pEnd,
			quorum:   quorum,
			v:        input,
			r:        rs[words*i : words*(i+1) : words*(i+1)],
			low:      bounded{lim: k, slots: s[:0:k]},
			high:     bounded{lim: k, slots: s[k : k : 2*k]},
			selfPort: selfPort(i),
		}
		// Reliable self-delivery: the node's own state is always among the
		// values it counts (R[i]=1) and among those it stores in R_low and
		// R_high. The pseudo-code leaves this implicit: a node never
		// receives its own message over a link, yet the quorum of
		// ⌊(n+3f)/2⌋+1 counts it, so its value must sit in the multiset
		// the update trims.
		ds[i].reset()
		ds[i].maybeDecide()
	}
	return ds
}

// Broadcast implements Process (Algorithm 2 line 2).
func (d *DBAC) Broadcast() Message { return Message{Value: d.v, Phase: d.p} }

// Deliver is DeliverAll for one message (Algorithm 2 lines 4–11).
func (d *DBAC) Deliver(dl Delivery) { d.deliver(dl.Port, dl.Msg.Value, dl.Msg.Phase) }

// deliver is the body of Deliver on the two fields Algorithm 2 reads,
// so DeliverAll and the piggyback wrapper hand them over without
// copying a Delivery per call.
func (d *DBAC) deliver(port int, value float64, phase int) {
	if phase >= d.p && !d.has(port) {
		d.r[port>>6] |= 1 << uint(port&63)
		d.nr++
		d.low.add(value)
		d.high.add(-value)
	}
	if d.p < d.pEnd && d.nr >= d.quorum {
		d.advance()
	}
	d.maybeDecide()
}

// has reports whether port is in R.
func (d *DBAC) has(port int) bool { return d.r[port>>6]&(1<<uint(port&63)) != 0 }

// advance is the update of lines 8–10 once the quorum is met: the
// midpoint of max(R_low) and min(R_high), the next phase, RESET().
func (d *DBAC) advance() {
	lo, hi := d.low.max(), -d.high.max() // max(R_low), min(R_high)
	d.v = (lo + hi) / 2
	d.p++
	d.reset()
}

// EndRound implements Process; DBAC is edge-triggered.
func (d *DBAC) EndRound() {}

// Output implements Process (lines 12–13).
func (d *DBAC) Output() (float64, bool) { return d.decision, d.decided }

// Phase implements Process.
func (d *DBAC) Phase() int { return d.p }

// Value implements Process.
func (d *DBAC) Value() float64 { return d.v }

// Reinit implements Process: return to the freshly-constructed
// state with a new input, keeping n, f, pEnd, quorum and the self port.
// Mirrors what buildDBACs does for each node: reset, then maybeDecide.
func (d *DBAC) Reinit(input float64) {
	d.v = input
	d.p = 0
	d.reset()
	d.decided = false
	d.decision = 0
	d.maybeDecide()
}

// reset is RESET() of Algorithm 2, plus the self-delivery store.
func (d *DBAC) reset() {
	clear(d.r)
	d.r[d.selfPort>>6] = 1 << uint(d.selfPort&63)
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
