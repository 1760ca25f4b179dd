package fault

import (
	"reflect"
	"sort"
	"testing"
)

func TestCrashConstructors(t *testing.T) {
	c := CrashAt(5)
	if c.Round != 5 || c.DeliverTo != nil {
		t.Errorf("CrashAt = %+v", c)
	}
	s := CrashSilent(3)
	if s.Round != 3 || s.DeliverTo == nil || len(s.DeliverTo) != 0 {
		t.Errorf("CrashSilent = %+v", s)
	}
	p := CrashPartial(2, 1, 4)
	if p.Round != 2 || !reflect.DeepEqual(p.DeliverTo, []int{1, 4}) {
		t.Errorf("CrashPartial = %+v", p)
	}
	// No receivers given still means "deliver to nobody", not "all".
	p0 := CrashPartial(2)
	if p0.DeliverTo == nil {
		t.Error("CrashPartial() must not degrade to a clean crash")
	}
}

func TestAllowsFinalDelivery(t *testing.T) {
	if !CrashAt(0).AllowsFinalDelivery(7) {
		t.Error("clean crash must deliver to everyone")
	}
	if CrashSilent(0).AllowsFinalDelivery(7) {
		t.Error("silent crash must deliver to nobody")
	}
	p := CrashPartial(0, 2, 5)
	if !p.AllowsFinalDelivery(2) || !p.AllowsFinalDelivery(5) {
		t.Error("partial crash must deliver to listed receivers")
	}
	if p.AllowsFinalDelivery(3) {
		t.Error("partial crash delivered to unlisted receiver")
	}
}

func TestScheduleAlive(t *testing.T) {
	s := Schedule{1: CrashAt(3)}
	// A crashing node still broadcasts in its crash round…
	if !s.Alive(3, 1) {
		t.Error("node must broadcast in its crash round")
	}
	if s.Alive(4, 1) {
		t.Error("node alive after crash round")
	}
	// …but is not fully alive through that round.
	if s.FullyAlive(3, 1) {
		t.Error("FullyAlive in the crash round")
	}
	if !s.FullyAlive(2, 1) {
		t.Error("not FullyAlive before the crash round")
	}
	if !s.Alive(100, 0) || !s.FullyAlive(100, 0) {
		t.Error("unscheduled node must be alive forever")
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{0: CrashAt(1), 1: CrashAt(2)}).Validate(5, 2); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := (Schedule{0: CrashAt(1), 1: CrashAt(2)}).Validate(5, 1); err == nil {
		t.Error("over-budget schedule accepted")
	}
	if err := (Schedule{7: CrashAt(1)}).Validate(5, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := (Schedule{0: CrashAt(-1)}).Validate(5, 3); err == nil {
		t.Error("negative round accepted")
	}
	if err := (Schedule{0: CrashPartial(1, 9)}).Validate(5, 3); err == nil {
		t.Error("out-of-range delivery target accepted")
	}
}

func TestScheduleNodes(t *testing.T) {
	s := Schedule{4: CrashAt(0), 1: CrashAt(2), 3: CrashAt(1)}
	if got, want := s.Nodes(), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("Nodes = %v, want %v", got, want)
	}
}

// FullyAlive reports whether the node is fault-free through the round,
// with no partial-delivery caveat.
func (s Schedule) FullyAlive(round, node int) bool {
	c, ok := s[node]
	if !ok {
		return true
	}
	return round < c.Round
}

// Nodes returns the crashing node IDs in ascending order.
func (s Schedule) Nodes() []int {
	nodes := make([]int, 0, len(s))
	for n := range s {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}
