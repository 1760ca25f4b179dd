package core

import "fmt"

// DAC is Algorithm 1 — Dynamic Approximate Consensus — the paper's
// crash-tolerant algorithm. It is correct when n ≥ 2f+1 and the dynamic
// graph satisfies (T, ⌊n/2⌋)-dynaDegree for some finite T (§IV), and it
// converges with the optimal rate 1/2 per phase (Remark 1).
//
// A node keeps only its state value v, the phase index p, the extremes
// v_min/v_max of the phase-p states seen so far, and an n-bit vector R
// marking the ports already counted for phase p. Two transition rules:
//
//   - jump (lines 5–8): a message from a higher phase q > p is adopted
//     wholesale — v ← v_j, p ← q — avoiding any need to retransmit old
//     phases under message loss;
//   - quorum (lines 12–15): after collecting ⌊n/2⌋+1 distinct phase-p
//     states (self included), v ← (v_min+v_max)/2 and p ← p+1.
//
// The node outputs v the first time p reaches pEnd (Equation 2) and then
// keeps broadcasting ⟨v, pEnd⟩ forever so that slower nodes can still
// jump; its phase never exceeds pEnd.
type DAC struct {
	n      int
	pEnd   int
	quorum int
	noJump bool // ablation only: disable lines 5–8 (see NewDACNoJumpPhases)

	v    float64
	p    int
	vmin float64
	vmax float64
	r    []uint64 // R as a bitset: bit port set — phase-p state received from port
	nr   int      // |R|: number of set bits in r

	selfPort int

	decided  bool
	decision float64

	// stats, exposed for analysis
	jumps   int
	quorums int
}

var _ Process = (*DAC)(nil)

// NewDAC builds a DAC node.
//
// n is the network size (known to every node, §II-A); selfPort is the
// port index this node uses for itself in its local numbering; input is
// the node's initial value in [0,1]; eps is the agreement parameter ε.
func NewDAC(n, selfPort int, input, eps float64) (*DAC, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrResilience, n)
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
	d := &DAC{
		n:      n,
		pEnd:   PEndDAC(eps),
		quorum: CrashQuorum(n),
		v:      input,
		vmin:   input,
		vmax:   input,
		// A bitset, not []bool: with n nodes each holding an n-entry R
		// vector the per-node ~n bytes would put the whole population at
		// Θ(n²) — a gigabyte-scale footprint at n≥6·10⁴. Bits cut it 8×
		// and make RESET a word-wise clear.
		r:        make([]uint64, (n+63)/64),
		selfPort: selfPort,
	}
	d.r[selfPort>>6] = 1 << (uint(selfPort) & 63)
	d.nr = 1
	d.maybeDecide()
	return d, nil
}

// NewDACPhases builds a DAC node with an explicit output phase instead of
// one derived from ε. Used by convergence experiments that want to watch
// the range contract for a fixed number of phases.
func NewDACPhases(n, selfPort, pEnd int, input float64) (*DAC, error) {
	if pEnd < 0 {
		return nil, fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	d, err := NewDAC(n, selfPort, input, 0.5) // placeholder ε, pEnd overridden below
	if err != nil {
		return nil, err
	}
	d.pEnd = pEnd
	d.decided = false
	d.maybeDecide()
	return d, nil
}

// Broadcast implements Process (Algorithm 1 line 2).
func (d *DAC) Broadcast() Message { return Message{Value: d.v, Phase: d.p} }

// Deliver implements Process (Algorithm 1 lines 4–15).
func (d *DAC) Deliver(dl Delivery) { d.deliver(dl.Port, dl.Msg.Value, dl.Msg.Phase) }

// deliver is the body of Deliver on the port and the two fields
// Algorithm 1 reads, so no caller copies a 48-byte Delivery to get
// here. DeliverAll shares it for every case its inlined loop does not
// handle itself.
func (d *DAC) deliver(port int, value float64, phase int) {
	switch {
	case phase > d.p:
		if d.noJump {
			break // ablation: future states are discarded
		}
		// Jump: copy the future state (lines 5–8).
		d.v = value
		d.p = phase
		if d.p > d.pEnd {
			d.p = d.pEnd // peers never exceed pEnd; defensive clamp
		}
		d.jumps++
		d.reset()
	case phase == d.p:
		// New same-phase state (lines 9–11).
		if w, bit := port>>6, uint64(1)<<(uint(port)&63); d.r[w]&bit == 0 {
			d.r[w] |= bit
			d.nr++
			d.store(value)
		}
	}
	// Quorum check (lines 12–15) runs after every processed message,
	// stale ones included.
	if d.p < d.pEnd && d.nr >= d.quorum {
		d.advance()
	}
	d.maybeDecide()
}

// advance is the quorum transition (lines 13–15).
func (d *DAC) advance() {
	d.v = (d.vmin + d.vmax) / 2
	d.p++
	d.quorums++
	d.reset()
}

// EndRound implements Process; DAC is edge-triggered.
func (d *DAC) EndRound() {}

// Output implements Process (line 16–17).
func (d *DAC) Output() (float64, bool) { return d.decision, d.decided }

// Phase implements Process.
func (d *DAC) Phase() int { return d.p }

// Value implements Process.
func (d *DAC) Value() float64 { return d.v }

// Jumps reports how many times this node took the jump rule (analysis).
func (d *DAC) Jumps() int { return d.jumps }

// Quorums reports how many times this node advanced by quorum (analysis).
func (d *DAC) Quorums() int { return d.quorums }

// PEnd reports the node's output phase.
func (d *DAC) PEnd() int { return d.pEnd }

// Quorum reports the number of distinct same-phase states (self
// included) that triggers a phase advance.
func (d *DAC) Quorum() int { return d.quorum }

// NewDACNoJumpPhases builds the jump-rule ablation of DAC: messages from
// higher phases are discarded instead of adopted (Algorithm 1 lines 5–8
// removed). §IV introduces the jump rule precisely so that nodes need
// not retransmit old-phase states under message loss; without it, any
// adversary that staggers quorums strands slow nodes in phases nobody
// broadcasts anymore — experiment E12 measures the resulting deadlock.
// Ablation only; production users want NewDAC.
func NewDACNoJumpPhases(n, selfPort, pEnd int, input float64) (*DAC, error) {
	d, err := NewDACPhases(n, selfPort, pEnd, input)
	if err != nil {
		return nil, err
	}
	d.noJump = true
	return d, nil
}

// NewDACCustom builds a DAC node with an explicit output phase AND an
// explicit quorum, without enforcing the paper's resilience bound. It
// exists solely for the necessity experiments (E2/E3), which model
// hypothetical algorithms that terminate below the ⌊n/2⌋+1 quorum — and
// then demonstrably violate agreement, exactly as Theorem 9 predicts.
// Production users want NewDAC.
func NewDACCustom(n, selfPort, pEnd, quorum int, input float64) (*DAC, error) {
	if pEnd < 0 {
		return nil, fmt.Errorf("core: negative pEnd %d", pEnd)
	}
	if quorum < 1 || quorum > n {
		return nil, fmt.Errorf("core: quorum %d out of range [1,%d]", quorum, n)
	}
	d, err := NewDAC(n, selfPort, input, 0.5) // placeholder ε; overridden below
	if err != nil {
		return nil, err
	}
	d.pEnd = pEnd
	d.quorum = quorum
	d.decided = false
	d.maybeDecide()
	return d, nil
}

// Reinit implements Reinitializer: return to the freshly-constructed
// state with a new input, keeping n, pEnd, quorum, the self port and
// the ablation flag. Mirrors NewDAC's initialization exactly.
func (d *DAC) Reinit(input float64) {
	d.v = input
	d.p = 0
	d.vmin = input
	d.vmax = input
	clear(d.r)
	d.r[d.selfPort>>6] = 1 << (uint(d.selfPort) & 63)
	d.nr = 1
	d.decided = false
	d.decision = 0
	d.jumps = 0
	d.quorums = 0
	d.maybeDecide()
}

// reset is RESET() of Algorithm 1: clear R except the self entry and
// collapse the phase-p extremes onto the current value.
func (d *DAC) reset() {
	clear(d.r)
	d.r[d.selfPort>>6] = 1 << (uint(d.selfPort) & 63)
	d.nr = 1
	d.vmin = d.v
	d.vmax = d.v
}

// store is STORE(v_j) of Algorithm 1.
func (d *DAC) store(v float64) {
	if v < d.vmin {
		d.vmin = v
	} else if v > d.vmax {
		d.vmax = v
	}
}

func (d *DAC) maybeDecide() {
	if !d.decided && d.p >= d.pEnd {
		d.decided = true
		d.decision = d.v
	}
}
