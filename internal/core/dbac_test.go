package core

import (
	"math"
	"testing"
)

func TestNewDBACValidation(t *testing.T) {
	if _, err := NewDBAC(5, 1, 0, 0.5, 0.1); err == nil {
		t.Error("n=5f accepted")
	}
	if _, err := NewDBAC(6, 1, 6, 0.5, 0.1); err == nil {
		t.Error("selfPort out of range accepted")
	}
	if _, err := NewDBAC(6, 1, 0, -0.5, 0.1); err == nil {
		t.Error("negative input accepted")
	}
	if _, err := NewDBAC(6, 1, 0, 0.5, 1); err == nil {
		t.Error("eps=1 accepted")
	}
	if _, err := NewDBAC(6, 1, 0, 0.5, 0.1); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
}

func TestDBACQuorumAdvance(t *testing.T) {
	// n=6, f=1: quorum ⌊9/2⌋+1 = 5 (self + 4 ports).
	d, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Quorum() != 5 {
		t.Fatalf("quorum = %d, want 5", d.Quorum())
	}
	deliver(d, 1, 0.0, 0)
	deliver(d, 2, 1.0, 0)
	deliver(d, 3, 0.25, 0)
	if d.Phase() != 0 {
		t.Fatal("advanced with 4/5")
	}
	deliver(d, 4, 0.75, 0)
	if d.Phase() != 1 {
		t.Fatalf("phase = %d, want 1", d.Phase())
	}
	// Received multiset {0.5(self), 0, 1, 0.25, 0.75}; f+1 = 2 lowest =
	// {0, 0.25}, 2 highest = {0.75, 1}. v ← (max(Rlow)+min(Rhigh))/2 =
	// (0.25+0.75)/2 = 0.5.
	if got := d.Value(); got != 0.5 {
		t.Errorf("value = %g, want 0.5", got)
	}
}

func TestDBACTrimsExtremes(t *testing.T) {
	// A single Byzantine extreme value cannot drag the update outside
	// the fault-free range: with f=1 the trim removes the 1 lowest and 1
	// highest received value.
	d, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.4, 0)
	deliver(d, 2, 0.6, 0)
	deliver(d, 3, 0.5, 0)
	deliver(d, 4, 1.0, 5) // Byzantine: extreme value, inflated phase
	if d.Phase() != 1 {
		t.Fatalf("phase = %d, want 1", d.Phase())
	}
	// Multiset {0.5, 0.4, 0.6, 0.5, 1.0}: Rlow={0.4,0.5}→max 0.5;
	// Rhigh={0.6,1.0}→min 0.6; v = 0.55 ∈ [0.4, 0.6].
	if got := d.Value(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("value = %g, want 0.55", got)
	}
	if got := d.Value(); got < 0.4 || got > 0.6 {
		t.Errorf("value %g escaped the fault-free interval [0.4,0.6]", got)
	}
}

func TestDBACAcceptsHigherPhase(t *testing.T) {
	// Messages from phase ≥ p count (Algorithm 2 line 5) — unlike DAC
	// there is no jump, but ahead values fill the quorum.
	d, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.5, 3)
	deliver(d, 2, 0.5, 7)
	deliver(d, 3, 0.5, 1)
	deliver(d, 4, 0.5, 2)
	if d.Phase() != 1 {
		t.Errorf("phase = %d, want 1 (higher-phase messages count)", d.Phase())
	}
}

func TestDBACNeverJumps(t *testing.T) {
	d, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	deliver(d, 1, 0.9, 9)
	if d.Phase() != 0 {
		t.Errorf("phase = %d, want 0 (DBAC must not jump)", d.Phase())
	}
	if d.Value() != 0.5 {
		t.Errorf("value = %g changed before quorum", d.Value())
	}
}

func TestDBACRejectsStaleAndDuplicates(t *testing.T) {
	d, err := NewDBACPhases(6, 1, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Advance to phase 1.
	for port := 1; port <= 4; port++ {
		deliver(d, port, 0.5, 0)
	}
	if d.Phase() != 1 {
		t.Fatal("setup failed")
	}
	deliver(d, 1, 0.0, 0) // stale phase
	deliver(d, 2, 0.0, 1)
	deliver(d, 2, 0.0, 1) // duplicate port
	deliver(d, 2, 0.0, 2) // still same port
	// Counted so far at phase 1: self + port 2 = 2 of 5.
	deliver(d, 3, 1.0, 1)
	deliver(d, 4, 1.0, 1)
	if d.Phase() != 1 {
		t.Fatal("advanced on 4/5 (stale or duplicate counted)")
	}
	deliver(d, 5, 1.0, 1)
	if d.Phase() != 2 {
		t.Errorf("phase = %d, want 2", d.Phase())
	}
}

func TestDBACSelfValueInMultiset(t *testing.T) {
	// After a phase advance, the node's own new value must seed
	// Rlow/Rhigh — reliable self-delivery: the node counts itself
	// (R[i]=1) and stores its own value, although no link carries it.
	// With quorum 5 and only 4 foreign low values, the self value is
	// what max(Rlow)/min(Rhigh) computations see as the fifth.
	d, err := NewDBACPhases(6, 1, 0, 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for port := 1; port <= 4; port++ {
		deliver(d, port, 0.0, 0)
	}
	// Multiset {1(self), 0, 0, 0, 0}: Rlow max = 0, Rhigh = {0, 1} min
	// = 0 → v = 0. Without the self store, Rhigh would be {0,0} and the
	// result the same — so probe the opposite side too.
	if got := d.Value(); got != 0 {
		t.Fatalf("value = %g, want 0", got)
	}
	// Now at phase 1 with v=0; feed 4 high values: multiset
	// {0(self), 1, 1, 1, 1}: Rlow = {0,1} → max 1? No: Rlow keeps the 2
	// smallest = {0, 1} → max(Rlow) = 1, min(Rhigh)=1 → v = 1 — if the
	// self value were missing, Rlow = {1,1} and still v = 1. The
	// distinguishing case needs mixed values:
	for port := 1; port <= 3; port++ {
		deliver(d, port, 0.8, 1)
	}
	deliver(d, 4, 0.2, 1)
	// Multiset {0(self), 0.8, 0.8, 0.8, 0.2}: sorted {0, .2, .8, .8, .8}
	// Rlow = {0, 0.2} → max 0.2; Rhigh = {0.8, 0.8} → min 0.8;
	// v = 0.5. Without the self store: {.2,.8,.8,.8} → Rlow max .8,
	// v = 0.8 — the test separates the two.
	if got := d.Value(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("value = %g, want 0.5 (self value missing from multiset?)", got)
	}
}

func TestDBACOutputFreezes(t *testing.T) {
	d, err := NewDBACPhases(6, 1, 0, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for port := 1; port <= 4; port++ {
		deliver(d, port, 0.5, 0)
	}
	v, ok := d.Output()
	if !ok {
		t.Fatal("not decided at pEnd=1")
	}
	for port := 1; port <= 4; port++ {
		deliver(d, port, 1.0, 1)
	}
	if v2, _ := d.Output(); v2 != v {
		t.Errorf("output moved after deciding: %g → %g", v, v2)
	}
	if d.Phase() != 1 {
		t.Errorf("phase = %d advanced beyond pEnd", d.Phase())
	}
}

// NewDBACCustom builds a DBAC node with explicit output phase and
// quorum, without enforcing n ≥ 5f+1: one node of what
// NewDBACPopulation builds for the necessity experiment (E6), which
// models hypothetical algorithms that terminate below the ⌊(n+3f)/2⌋+1
// quorum and then violate agreement, as Theorem 10 predicts.
func NewDBACCustom(n, f, selfPort, pEnd, quorum int, input float64) (*DBAC, error) {
	if err := checkDBAC(n, f, pEnd, quorum); err != nil {
		return nil, err
	}
	if err := checkNode(n, selfPort, input); err != nil {
		return nil, err
	}
	return newDBAC(n, f, selfPort, pEnd, quorum, input), nil
}

func TestNewDBACCustom(t *testing.T) {
	// n = 5f is rejected by NewDBAC but allowed by the necessity-
	// experiment constructor.
	d, err := NewDBACCustom(10, 2, 0, 5, 8, 0.5)
	if err != nil {
		t.Fatalf("custom constructor rejected n=5f: %v", err)
	}
	if d.Quorum() != 8 {
		t.Errorf("quorum = %d, want 8", d.Quorum())
	}
	if _, err := NewDBACCustom(10, 2, 0, 5, 11, 0.5); err == nil {
		t.Error("quorum > n accepted")
	}
	if _, err := NewDBACCustom(10, 10, 0, 5, 8, 0.5); err == nil {
		t.Error("f ≥ n accepted")
	}
}

func TestDBACEquationSixPEnd(t *testing.T) {
	d, err := NewDBAC(6, 1, 0, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.PEnd(), PEndDBAC(0.01, 6); got != want {
		t.Errorf("pEnd = %d, want Equation 6's %d", got, want)
	}
}

func TestDBACLockStepConvergence(t *testing.T) {
	// 6 fault-free DBAC nodes (f=1 budget, zero actual faults) in
	// lock-step full mesh: the observed range must contract and end
	// within the fault-free input hull.
	n, f := 6, 1
	inputs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	nodes := make([]*DBAC, n)
	for i := range nodes {
		d, err := NewDBACPhases(n, f, i, 20, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = d
	}
	for round := 0; round < 20; round++ {
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
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range nodes {
		v := d.Value()
		if v < 0 || v > 1 {
			t.Errorf("value %g escaped input hull", v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 1e-4 {
		t.Errorf("range after 20 lock-step phases = %g, want ≤ 1e-4", hi-lo)
	}
}

// PEnd reports the node's output phase.
func (d *DBAC) PEnd() int { return d.pEnd }

// Quorum reports the number of distinct counted states (self included)
// that triggers a phase advance.
func (d *DBAC) Quorum() int { return d.quorum }
