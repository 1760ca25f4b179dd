package core

import (
	"strings"
	"testing"
)

func TestMessageString(t *testing.T) {
	s := Message{Value: 0.25, Phase: 7}.String()
	if !strings.Contains(s, "0.25") || !strings.Contains(s, "7") {
		t.Errorf("String() = %q", s)
	}
}

// snapOf is p's Snapshot, taken through a one-node PerNode population.
func snapOf(p Process) Snapshot { return Snap(PerNode([]Process{p}), 0) }

func TestSnap(t *testing.T) {
	d, err := NewDACPhases(5, 0, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapOf(d)
	if snap.Phase != 0 || snap.Value != 0.5 || snap.Decided {
		t.Errorf("snap = %+v", snap)
	}
	// Walk to pEnd and re-snap.
	deliver(d, 1, 0.5, 0)
	deliver(d, 2, 0.5, 0)
	deliver(d, 1, 0.5, 1)
	deliver(d, 2, 0.5, 1)
	snap = snapOf(d)
	if snap.Phase != 2 || !snap.Decided {
		t.Errorf("snap after deciding = %+v", snap)
	}
	if snap.Crashed || snap.Byzantine {
		t.Error("Snap must not invent fault flags")
	}
}
