package core

import (
	"reflect"
	"testing"
)

// driveSequence feeds a fixed delivery schedule to a process and records
// the externally visible trajectory.
func driveSequence(p Process) []Snapshot {
	msgs := []Delivery{
		{Port: 1, Msg: Message{Value: 0.2, Phase: 0}},
		{Port: 2, Msg: Message{Value: 0.9, Phase: 0}},
		{Port: 3, Msg: Message{Value: 0.4, Phase: 1}},
		{Port: 1, Msg: Message{Value: 0.5, Phase: 1}},
		{Port: 4, Msg: Message{Value: 0.6, Phase: 2}},
		{Port: 2, Msg: Message{Value: 0.1, Phase: 2}},
	}
	var out []Snapshot
	for round := 0; round < 4; round++ {
		p.Broadcast()
		for i := range msgs {
			p.DeliverAll(msgs[i : i+1])
			out = append(out, snapOf(p))
		}
		p.EndRound()
	}
	return out
}

// TestDACReinitMatchesFresh: a Reinit DAC must be indistinguishable from
// a newly constructed one on an identical delivery schedule — including
// after the recycled instance was driven through jumps and quorums.
func TestDACReinitMatchesFresh(t *testing.T) {
	recycled, err := NewDACPhases(5, 0, 3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	driveSequence(recycled) // dirty every field
	recycled.Reinit(0.3)

	fresh, err := NewDACPhases(5, 0, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := driveSequence(recycled), driveSequence(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("reinit trajectory diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDBACReinitMatchesFresh is the DBAC counterpart.
func TestDBACReinitMatchesFresh(t *testing.T) {
	recycled, err := NewDBACPhases(6, 1, 0, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	driveSequence(recycled)
	recycled.Reinit(0.2)

	fresh, err := NewDBACPhases(6, 1, 0, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := driveSequence(recycled), driveSequence(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("reinit trajectory diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDBACPiggybackReinitMatchesFresh is the piggyback counterpart; the
// schedule's phase skews exercise the history ring and both counters.
func TestDBACPiggybackReinitMatchesFresh(t *testing.T) {
	recycled, err := NewDBACPiggybackPhases(6, 1, 0, 2, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	driveSequence(recycled)
	recycled.Reinit(0.2)

	fresh, err := NewDBACPiggybackPhases(6, 1, 0, 2, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := driveSequence(recycled), driveSequence(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("reinit trajectory diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(recycled, fresh) {
		t.Errorf("reinit state diverged:\ngot  %+v\nwant %+v", recycled, fresh)
	}
}

// TestReinitImmediateDecision: Reinit with pEnd 0 must re-decide at
// construction time, exactly like the constructor.
func TestReinitImmediateDecision(t *testing.T) {
	d, err := NewDACPhases(3, 0, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d.Reinit(0.9)
	v, ok := d.Output()
	if !ok || v != 0.9 {
		t.Fatalf("Output after Reinit with pEnd=0: (%g, %v), want (0.9, true)", v, ok)
	}
}
