package core

import "testing"

// NewDACNoJumpPhases builds the jump-rule ablation of DAC: messages from
// higher phases are discarded instead of adopted (Algorithm 1 lines 5–8
// removed). §IV introduces the jump rule precisely so that nodes need
// not retransmit old-phase states under message loss; without it, any
// adversary that staggers quorums strands slow nodes in phases nobody
// broadcasts anymore — experiment E12 measures the resulting deadlock.
// The engine builds it through NewDACPopulation; this per-node form is
// the reference the tests compare that population against.
func NewDACNoJumpPhases(n, selfPort, pEnd int, input float64) (*DAC, error) {
	return newDAC(n, selfPort, pEnd, CrashQuorum(n), true, input)
}

func TestDACNoJumpIgnoresFutureStates(t *testing.T) {
	d, err := NewDACNoJumpPhases(5, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.9, 7)
	if d.Phase() != 0 {
		t.Errorf("phase = %d, want 0 (ablation must not jump)", d.Phase())
	}
	if d.Value() != 0.5 {
		t.Errorf("value = %g, want untouched 0.5", d.Value())
	}
	// Same-phase quorum still works.
	deliver(d, 1, 0.4, 0)
	deliver(d, 2, 0.6, 0)
	if d.Phase() != 1 {
		t.Errorf("phase = %d, want 1 (quorum path intact)", d.Phase())
	}
}

func TestDACNoJumpStrandsBehindQuorum(t *testing.T) {
	// The deadlock in miniature: the node needs 3 distinct phase-0
	// states, but only two senders remain at phase 0 — everyone else
	// has moved on and their messages are discarded.
	d, err := NewDACNoJumpPhases(5, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.4, 0)
	for round := 0; round < 50; round++ {
		deliver(d, 2, 0.6, 3)
		deliver(d, 3, 0.7, 4)
		deliver(d, 4, 0.8, 5)
	}
	if d.Phase() != 0 {
		t.Errorf("phase = %d, want 0 (stranded)", d.Phase())
	}
	// A real DAC in the same position jumps immediately.
	real, err := NewDACPhases(5, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(real, 2, 0.6, 3)
	if real.Phase() != 3 {
		t.Errorf("real DAC phase = %d, want 3", real.Phase())
	}
}

func TestDACNoJumpValidation(t *testing.T) {
	if _, err := NewDACNoJumpPhases(5, 0, -1, 0.5); err == nil {
		t.Error("negative pEnd accepted")
	}
	if _, err := NewDACNoJumpPhases(5, 9, 3, 0.5); err == nil {
		t.Error("bad selfPort accepted")
	}
}
