// Package fault implements the node-fault half of the paper's hybrid
// fault model (§II-A): crash schedules for the DAC setting and pluggable
// Byzantine behaviors for the DBAC setting.
package fault

import "fmt"

// Crash describes when and how one node crashes. A node crashing in
// round r broadcasts in round r to only the listed subset of receivers
// (intersected with the adversary's edge set E(r)) and is silent from
// round r+1 on — the classical "crash mid-broadcast" semantics.
type Crash struct {
	// Round is the crash round (0-based). The node behaves correctly in
	// all rounds before it.
	Round int
	// DeliverTo optionally restricts which receivers may still get the
	// final round-Round broadcast; nil means the final broadcast is
	// delivered to every out-neighbor in E(Round) (a "clean" crash at
	// the end of round Round), while an empty non-nil slice means the
	// node crashes before sending anything in round Round.
	DeliverTo []int
}

// AllowsFinalDelivery reports whether the crashing node's round-Round
// broadcast may reach the given receiver.
func (c Crash) AllowsFinalDelivery(receiver int) bool {
	if c.DeliverTo == nil {
		return true
	}
	for _, r := range c.DeliverTo {
		if r == receiver {
			return true
		}
	}
	return false
}

// Schedule maps node IDs to their crash descriptions. Nodes absent from
// the map never crash.
type Schedule map[int]Crash

// CrashAt returns a schedule entry for a clean crash at the end of the
// given round.
func CrashAt(round int) Crash { return Crash{Round: round} }

// CrashSilent returns a crash that suppresses even the final broadcast.
func CrashSilent(round int) Crash { return Crash{Round: round, DeliverTo: []int{}} }

// CrashPartial returns a crash whose final broadcast reaches only the
// listed receivers.
func CrashPartial(round int, deliverTo ...int) Crash {
	if deliverTo == nil {
		deliverTo = []int{}
	}
	return Crash{Round: round, DeliverTo: deliverTo}
}

// Validate checks the schedule against a network of n nodes and fault
// budget f.
func (s Schedule) Validate(n, f int) error {
	if len(s) > f {
		return fmt.Errorf("fault: %d crashes scheduled but f=%d", len(s), f)
	}
	for node, c := range s {
		if node < 0 || node >= n {
			return fmt.Errorf("fault: crash node %d out of range [0,%d)", node, n)
		}
		if c.Round < 0 {
			return fmt.Errorf("fault: node %d crash round %d negative", node, c.Round)
		}
		for _, r := range c.DeliverTo {
			if r < 0 || r >= n {
				return fmt.Errorf("fault: node %d final-delivery target %d out of range", node, r)
			}
		}
	}
	return nil
}

// Alive reports whether a node still broadcasts in the given round
// (crashing nodes still broadcast — possibly partially — in their crash
// round).
func (s Schedule) Alive(round, node int) bool {
	c, ok := s[node]
	if !ok {
		return true
	}
	return round <= c.Round
}
