package core

import (
	"math"
	"testing"
)

// NewDACCustom builds a DAC node with an explicit output phase AND an
// explicit quorum, without enforcing the paper's resilience bound. It
// exists solely for the necessity experiments (E2/E3), which model
// hypothetical algorithms that terminate below the ⌊n/2⌋+1 quorum — and
// then demonstrably violate agreement, exactly as Theorem 9 predicts.
// The engine builds those nodes through NewDACPopulation; this per-node
// form is the reference the tests compare that population against.
func NewDACCustom(n, selfPort, pEnd, quorum int, input float64) (*DAC, error) {
	return newDAC(n, selfPort, pEnd, quorum, false, input)
}

// deliver is a test helper for feeding a message from a port.
func deliver(p Process, port int, value float64, phase int) {
	p.DeliverAll([]Delivery{{Port: port, Msg: Message{Value: value, Phase: phase}}})
}

func TestNewDACValidation(t *testing.T) {
	if _, err := NewDAC(0, 0, 0.5, 0.1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewDAC(5, 5, 0.5, 0.1); err == nil {
		t.Error("selfPort out of range accepted")
	}
	if _, err := NewDAC(5, -1, 0.5, 0.1); err == nil {
		t.Error("negative selfPort accepted")
	}
	if _, err := NewDAC(5, 0, 1.5, 0.1); err == nil {
		t.Error("input > 1 accepted")
	}
	if _, err := NewDAC(5, 0, 0.5, 0); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := NewDAC(5, 0, 0.5, 0.1); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
}

func TestDACInitialState(t *testing.T) {
	d, err := NewDAC(5, 2, 0.25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Phase(); got != 0 {
		t.Errorf("initial phase = %d, want 0", got)
	}
	if got := d.Value(); got != 0.25 {
		t.Errorf("initial value = %g, want 0.25", got)
	}
	if _, decided := d.Output(); decided {
		t.Error("decided at construction with pEnd > 0")
	}
	m := d.Broadcast()
	if m.Value != 0.25 || m.Phase != 0 {
		t.Errorf("broadcast = %v, want ⟨0.25, 0⟩", m)
	}
}

func TestDACQuorumAdvance(t *testing.T) {
	// n=5: quorum ⌊5/2⌋+1 = 3 (self + 2 distinct ports).
	d, err := NewDAC(5, 0, 0.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.0, 0)
	if d.Phase() != 0 {
		t.Fatalf("advanced with 2/3 quorum")
	}
	deliver(d, 2, 1.0, 0)
	if d.Phase() != 1 {
		t.Fatalf("phase = %d after quorum, want 1", d.Phase())
	}
	// v ← (min+max)/2 over {0.5, 0.0, 1.0} = (0+1)/2.
	if got := d.Value(); got != 0.5 {
		t.Errorf("value = %g, want 0.5", got)
	}
}

func TestDACDuplicatePortIgnored(t *testing.T) {
	d, err := NewDAC(5, 0, 0.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.0, 0)
	deliver(d, 1, 0.9, 0) // same port, same phase: line 9 guard
	if d.Phase() != 0 {
		t.Fatal("duplicate port counted towards quorum")
	}
	deliver(d, 2, 1.0, 0)
	if d.Phase() != 1 {
		t.Fatal("did not advance after a genuine second port")
	}
	// The duplicate's value must not have entered the extremes:
	// midpoint of {0.5, 0.0, 1.0} = 0.5, not of {…,0.9}.
	if got := d.Value(); got != 0.5 {
		t.Errorf("value = %g, want 0.5 (duplicate stored?)", got)
	}
}

func TestDACSelfCounted(t *testing.T) {
	// n=1: quorum is 1, the node is alone and already has itself, so it
	// must walk to pEnd without any delivery as soon as messages trigger
	// checks. With no deliveries at all it stays put (DAC is
	// edge-triggered) — the engine's EndRound does not advance phases.
	d, err := NewDAC(3, 1, 0.5, 0.5) // quorum 2
	if err != nil {
		t.Fatal(err)
	}
	// One other port suffices: self (port 1) + port 0.
	deliver(d, 0, 0.5, 0)
	if d.Phase() != 1 {
		t.Errorf("phase = %d, want 1 (self must count)", d.Phase())
	}
}

func TestDACSelfPortDeliveryIgnored(t *testing.T) {
	// A (buggy or malicious) delivery arriving on the node's own port
	// must not double-count: R[self] is already 1.
	d, err := NewDAC(5, 0, 0.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 0, 0.0, 0) // self port
	deliver(d, 0, 0.0, 0)
	if d.Phase() != 0 {
		t.Error("self-port deliveries advanced the phase")
	}
}

func TestDACJump(t *testing.T) {
	d, err := NewDAC(5, 0, 0.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 3, 0.75, 4)
	if d.Phase() != 4 {
		t.Fatalf("phase = %d after jump, want 4", d.Phase())
	}
	if d.Value() != 0.75 {
		t.Errorf("value = %g after jump, want 0.75 (copied)", d.Value())
	}
	// R must have been reset: two fresh ports advance to phase 5.
	deliver(d, 1, 0.7, 4)
	deliver(d, 2, 0.8, 4)
	if d.Phase() != 5 {
		t.Errorf("phase = %d, want 5 (reset after jump)", d.Phase())
	}
	// Midpoint over {0.75, 0.7, 0.8}.
	if got := d.Value(); got != 0.75 {
		t.Errorf("value = %g, want 0.75", got)
	}
}

func TestDACStaleMessageIgnored(t *testing.T) {
	d, err := NewDAC(5, 0, 0.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 3, 0.75, 4) // jump to 4
	deliver(d, 1, 0.0, 2)  // stale: phase 2 < 4
	if d.Phase() != 4 {
		t.Error("stale message changed phase")
	}
	if d.Value() != 0.75 {
		t.Error("stale message changed value")
	}
}

func TestDACOutputAtPEnd(t *testing.T) {
	eps := 0.25 // pEnd = 2
	d, err := NewDAC(3, 0, 0.0, eps)
	if err != nil {
		t.Fatal(err)
	}
	if d.PEnd() != 2 {
		t.Fatalf("pEnd = %d, want 2", d.PEnd())
	}
	deliver(d, 1, 1.0, 0) // quorum (2): phase 1, v = 0.5
	if _, ok := d.Output(); ok {
		t.Fatal("decided before pEnd")
	}
	deliver(d, 1, 0.5, 1) // quorum: phase 2, v = 0.5
	v, ok := d.Output()
	if !ok {
		t.Fatal("not decided at pEnd")
	}
	if v != 0.5 {
		t.Errorf("output = %g, want 0.5", v)
	}
	// The decision is frozen even if state keeps evolving.
	deliver(d, 2, 0.9, 2)
	if v2, _ := d.Output(); v2 != v {
		t.Errorf("output changed after deciding: %g → %g", v, v2)
	}
}

func TestDACPhaseNeverExceedsPEnd(t *testing.T) {
	d, err := NewDAC(3, 0, 0.5, 0.5) // pEnd = 1
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.5, 0)
	if d.Phase() != 1 {
		t.Fatalf("phase = %d, want 1", d.Phase())
	}
	// More quorums at pEnd must not push the phase further.
	deliver(d, 1, 0.4, 1)
	deliver(d, 2, 0.6, 1)
	if d.Phase() != 1 {
		t.Errorf("phase = %d advanced beyond pEnd", d.Phase())
	}
	// Defensive clamp: a (protocol-violating) message claiming a phase
	// beyond pEnd cannot drag us past it.
	deliver(d, 2, 0.6, 99)
	if d.Phase() > 1 {
		t.Errorf("phase = %d exceeded pEnd via jump", d.Phase())
	}
}

func TestDACJumpToExactlyPEndDecides(t *testing.T) {
	d, err := NewDAC(5, 0, 0.5, 0.25) // pEnd = 2
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.123, 2)
	v, ok := d.Output()
	if !ok {
		t.Fatal("jump to pEnd did not decide")
	}
	if v != 0.123 {
		t.Errorf("output = %g, want the copied 0.123", v)
	}
}

func TestNewDACPhases(t *testing.T) {
	d, err := NewDACPhases(5, 0, 7, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.PEnd() != 7 {
		t.Errorf("pEnd = %d, want 7", d.PEnd())
	}
	if _, ok := d.Output(); ok {
		t.Error("decided at construction")
	}
	d0, err := NewDACPhases(5, 0, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d0.Output(); !ok || v != 0.5 {
		t.Errorf("pEnd=0 node: output (%g,%v), want (0.5,true)", v, ok)
	}
	if _, err := NewDACPhases(5, 0, -1, 0.5); err == nil {
		t.Error("negative pEnd accepted")
	}
}

func TestNewDACCustomQuorum(t *testing.T) {
	// Quorum 2 on n=5 advances after a single foreign port.
	d, err := NewDACCustom(5, 0, 3, 2, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 4, 1.0, 0)
	if d.Phase() != 1 {
		t.Errorf("phase = %d with custom quorum 2, want 1", d.Phase())
	}
	if d.Value() != 0.5 {
		t.Errorf("value = %g, want 0.5", d.Value())
	}
	if _, err := NewDACCustom(5, 0, 3, 0, 0.5); err == nil {
		t.Error("quorum 0 accepted")
	}
	if _, err := NewDACCustom(5, 0, 3, 6, 0.5); err == nil {
		t.Error("quorum > n accepted")
	}
}

func TestDACConvergenceRateHalf(t *testing.T) {
	// Lock-step full-mesh simulation of 5 DAC nodes entirely in-package:
	// every phase, everyone hears everyone, so range must halve exactly
	// (the extremes average towards the midpoint of the full multiset —
	// quorum = 3 of 5, worst case per Claim 2 still ≤ 1/2 here because
	// delivery is complete).
	n := 5
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	nodes := make([]*DAC, n)
	for i := range nodes {
		d, err := NewDACPhases(n, i, 8, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = d
	}
	rangeOf := func() float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range nodes {
			lo = math.Min(lo, d.Value())
			hi = math.Max(hi, d.Value())
		}
		return hi - lo
	}
	prev := rangeOf()
	for round := 0; round < 8; round++ {
		msgs := make([]Message, n)
		for i, d := range nodes {
			msgs[i] = d.Broadcast()
		}
		for i, d := range nodes {
			for j := range nodes {
				if j != i {
					d.Deliver(Delivery{Port: j, Msg: msgs[j]})
				}
			}
		}
		cur := rangeOf()
		if prev > 1e-12 && cur > prev/2+1e-12 {
			t.Fatalf("round %d: range %g → %g contracted slower than 1/2", round, prev, cur)
		}
		prev = cur
	}
	if prev > math.Pow(0.5, 8) {
		t.Errorf("final range %g exceeds (1/2)^8", prev)
	}
}

// PEnd reports the node's output phase.
func (d *DAC) PEnd() int { return d.pEnd }
