package core

import (
	"testing"
)

// Deliver is DeliverAll for one message: the per-message reference the
// fold-equivalence tests compare DeliverAll against.
func (pb *DBACPiggyback) Deliver(dl Delivery) { pb.deliver(dl.Port, &dl.Msg) }

func TestPiggybackValidation(t *testing.T) {
	if _, err := NewDBACPiggyback(6, 1, 0, -1, 0.5, 0.1); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewDBACPiggyback(5, 1, 0, 2, 0.5, 0.1); err == nil {
		t.Error("n=5f accepted")
	}
	if _, err := NewDBACPiggyback(6, 1, 0, 2, 0.5, 0.1); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
}

func TestPiggybackZeroWindowMatchesDBAC(t *testing.T) {
	// K=0 must behave byte-for-byte like plain DBAC on any delivery
	// sequence.
	pb, err := NewDBACPiggybackPhases(6, 1, 0, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		port  int
		value float64
		phase int
	}{
		{1, 0.1, 0}, {2, 0.9, 0}, {3, 0.4, 1}, {4, 0.6, 0},
		{1, 0.2, 1}, {2, 0.8, 1}, {3, 0.5, 2}, {5, 0.55, 1},
		{4, 0.45, 2}, {1, 0.5, 2}, {2, 0.5, 2}, {5, 0.5, 3},
	}
	for i, d := range seq {
		pb.Deliver(Delivery{Port: d.port, Msg: Message{Value: d.value, Phase: d.phase}})
		db.Deliver(Delivery{Port: d.port, Msg: Message{Value: d.value, Phase: d.phase}})
		if pb.Phase() != db.Phase() || pb.Value() != db.Value() {
			t.Fatalf("step %d: pb (p=%d,v=%g) diverged from dbac (p=%d,v=%g)",
				i, pb.Phase(), pb.Value(), db.Phase(), db.Value())
		}
	}
	bm := pb.Broadcast()
	if len(bm.History) != 0 {
		t.Errorf("K=0 broadcast carries history (%d entries)", len(bm.History))
	}
}

func TestPiggybackBroadcastCarriesHistory(t *testing.T) {
	pb, err := NewDBACPiggybackPhases(6, 1, 0, 3, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Walk two phases.
	for phase := 0; phase < 2; phase++ {
		for port := 1; port <= 4; port++ {
			pb.Deliver(Delivery{Port: port, Msg: Message{Value: 0.5, Phase: phase}})
		}
	}
	if pb.Phase() != 2 {
		t.Fatalf("setup: phase = %d, want 2", pb.Phase())
	}
	m := pb.Broadcast()
	if m.Phase != 2 {
		t.Errorf("broadcast phase = %d, want 2", m.Phase)
	}
	if len(m.History) != 2 {
		t.Fatalf("history length = %d, want 2 (phases 1 and 0)", len(m.History))
	}
	if m.History[0].Phase != 1 || m.History[1].Phase != 0 {
		t.Errorf("history phases = %d,%d, want 1,0", m.History[0].Phase, m.History[1].Phase)
	}
	if m.History[1].Value != 0.5 {
		t.Errorf("phase-0 history value = %g, want the initial 0.5", m.History[1].Value)
	}
}

func TestPiggybackPrefersSamePhaseEntry(t *testing.T) {
	// Receiver at phase 0; sender claims phase 2 with current value 0.9
	// but history entry (phase 0, 0.1). With K ≥ skew the receiver must
	// use 0.1, not 0.9.
	pb, err := NewDBACPiggybackPhases(6, 1, 0, 2, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ahead := Message{
		Value: 0.9, Phase: 2,
		History: []HistEntry{{Value: 0.2, Phase: 1}, {Value: 0.1, Phase: 0}},
	}
	pb.Deliver(Delivery{Port: 1, Msg: ahead})
	// Fill the quorum with three more phase-0 values.
	for port := 2; port <= 4; port++ {
		pb.Deliver(Delivery{Port: port, Msg: Message{Value: 0.5, Phase: 0}})
	}
	if pb.Phase() != 1 {
		t.Fatalf("phase = %d, want 1", pb.Phase())
	}
	// Multiset {0.5(self), 0.1, 0.5, 0.5, 0.5}: Rlow={0.1,0.5}→0.5;
	// Rhigh={0.5,0.5}→0.5 → v=0.5. Had it used 0.9: Rhigh={0.9,0.5},
	// min 0.5 — same… pick values that separate: rerun with distinct
	// fills below.
	pb2, err := NewDBACPiggybackPhases(6, 1, 0, 2, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pb2.Deliver(Delivery{Port: 1, Msg: ahead})
	pb2.Deliver(Delivery{Port: 2, Msg: Message{Value: 0.3, Phase: 0}})
	pb2.Deliver(Delivery{Port: 3, Msg: Message{Value: 0.3, Phase: 0}})
	pb2.Deliver(Delivery{Port: 4, Msg: Message{Value: 0.3, Phase: 0}})
	// Used entry 0.1: multiset {0.5, 0.1, .3, .3, .3}: Rlow={0.1,0.3}→
	// max .3; Rhigh={0.5,0.3}→min .3 → v=0.3. Used current 0.9 instead:
	// {0.5, 0.9, .3,.3,.3}: Rlow={.3,.3}→.3; Rhigh={.9,.5}→.5 → v=0.4.
	if got := pb2.Value(); got != 0.3 {
		t.Errorf("value = %g, want 0.3 (same-phase entry not used)", got)
	}
}

func TestPiggybackFallbackWhenSkewExceedsWindow(t *testing.T) {
	pb, err := NewDBACPiggybackPhases(6, 1, 0, 1, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Sender at phase 5 with window 1: history has only phase 4 — no
	// phase-0 entry, so the receiver must fall back to the current
	// value (phase ≥ 0 is admissible DBAC behavior).
	far := Message{Value: 0.9, Phase: 5, History: []HistEntry{{Value: 0.8, Phase: 4}}}
	pb.Deliver(Delivery{Port: 1, Msg: far})
	for port := 2; port <= 4; port++ {
		pb.Deliver(Delivery{Port: port, Msg: Message{Value: 0.5, Phase: 0}})
	}
	if pb.Phase() != 1 {
		t.Errorf("phase = %d, want 1 (fallback must count towards quorum)", pb.Phase())
	}
}

func TestPiggybackIgnoresBehindSender(t *testing.T) {
	pb, err := NewDBACPiggybackPhases(6, 1, 0, 2, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Advance pb to phase 1 first.
	for port := 1; port <= 4; port++ {
		pb.Deliver(Delivery{Port: port, Msg: Message{Value: 0.5, Phase: 0}})
	}
	if pb.Phase() != 1 {
		t.Fatal("setup failed")
	}
	behind := Message{Value: 0.0, Phase: 0}
	pb.Deliver(Delivery{Port: 1, Msg: behind})
	// Port 1 must not be counted at phase 1: three more ports needed.
	pb.Deliver(Delivery{Port: 2, Msg: Message{Value: 0.5, Phase: 1}})
	pb.Deliver(Delivery{Port: 3, Msg: Message{Value: 0.5, Phase: 1}})
	pb.Deliver(Delivery{Port: 4, Msg: Message{Value: 0.5, Phase: 1}})
	if pb.Phase() != 1 {
		t.Fatal("behind-sender message counted towards quorum")
	}
	pb.Deliver(Delivery{Port: 5, Msg: Message{Value: 0.5, Phase: 1}})
	if pb.Phase() != 2 {
		t.Errorf("phase = %d, want 2", pb.Phase())
	}
}

func TestPiggybackWindowAccessor(t *testing.T) {
	pb, err := NewDBACPiggyback(6, 1, 0, 4, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Window() != 4 {
		t.Errorf("Window() = %d, want 4", pb.Window())
	}
}

// Window reports the piggyback window K.
func (pb *DBACPiggyback) Window() int { return pb.k }
