package adversary

import (
	"fmt"

	"anondyn/internal/network"
)

// Impossibility constructions (§VI). These adversaries realize the
// executions used in the necessity proofs: they partition the nodes into
// groups that never exchange messages while still granting every
// fault-free node a dynaDegree just below the respective threshold.

// SplitGroups isolates two (or more) node groups from each other forever:
// within each group the graph is complete in every round, across groups
// there are no links. With groups of size ⌈n/2⌉ and ⌊n/2⌋ this is the
// Theorem 9 (part 1) adversary: it satisfies (1, ⌊n/2⌋−1)-dynaDegree, yet
// groups given different inputs can never ε-agree.
type SplitGroups struct {
	g    *network.EdgeSet
	name string
}

// NewSplitGroups builds the adversary for an explicit partition. Groups
// must be disjoint; membership is not required to cover all nodes (nodes
// in no group are completely isolated — they still hear themselves).
func NewSplitGroups(n int, groups ...[]int) (*SplitGroups, error) {
	seen := make(map[int]bool, n)
	for _, g := range groups {
		for _, v := range g {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("adversary: group node %d out of range [0,%d)", v, n)
			}
			if seen[v] {
				return nil, fmt.Errorf("adversary: node %d appears in two groups", v)
			}
			seen[v] = true
		}
	}
	return &SplitGroups{
		g:    network.GroupComplete(n, groups...),
		name: fmt.Sprintf("split(%d groups)", len(groups)),
	}, nil
}

// NewHalves builds the canonical Theorem 9 split of [0,n) into
// [0, ⌈n/2⌉) and [⌈n/2⌉, n).
func NewHalves(n int) (*SplitGroups, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: cannot split %d nodes", n)
	}
	half := (n + 1) / 2
	a := make([]int, 0, half)
	for i := 0; i < half; i++ {
		a = append(a, i)
	}
	b := make([]int, 0, n-half)
	for i := half; i < n; i++ {
		b = append(b, i)
	}
	return NewSplitGroups(n, a, b)
}

// Name implements Adversary.
func (s *SplitGroups) Name() string { return s.name }

// Edges implements Adversary. SplitGroups returns its prebuilt set by
// pointer and skips InPlace: the fallback path is already
// allocation-free and copy-free.
func (s *SplitGroups) Edges(t int, view View) *network.EdgeSet { return s.g }

// Oblivious implements the state-independence seam.
func (s *SplitGroups) Oblivious() bool { return true }

// ByzSplitLayout is the full Theorem 10 scenario: the node grouping, the
// Byzantine set, and the inputs that together force any terminating
// algorithm to violate agreement at (1, ⌊(n+3f)/2⌋−1)-dynaDegree.
//
// With nodes 0-indexed and groupSize = ⌊(n+3f)/2⌋:
//
//	group A  = [0, groupSize)
//	group B  = [n−groupSize, n)            (overlap with A of ~3f nodes)
//	Byzantine = [⌊(n−f)/2⌋, ⌊(n+f)/2⌋)     (the middle f nodes)
//	inputs    = 0 for i < ⌊(n−f)/2⌋, 1 for i ≥ ⌊(n+f)/2⌋
//
// Fault-free input-0 nodes receive only from group A, fault-free input-1
// nodes only from group B; the Byzantine nodes equivocate (input 0
// towards A-receivers, input 1 towards B-receivers — fault.SplitBrain).
type ByzSplitLayout struct {
	N, F      int
	GroupA    []int
	GroupB    []int
	Byzantine []int
	// AReceivers lists the fault-free nodes that hear only group A (the
	// input-0 nodes); BReceivers the fault-free nodes that hear only
	// group B (the input-1 nodes).
	AReceivers []int
	BReceivers []int
}

// CheckByzSplit reports whether the Theorem 10 layout exists for n and
// f, without building it: it requires n ≥ 3f+1 (below that the
// impossibility is classical, [5][30]) and f ≥ 1.
func CheckByzSplit(n, f int) error {
	if f < 1 {
		return fmt.Errorf("adversary: byzantine split needs f ≥ 1, got %d", f)
	}
	if n < 3*f+1 {
		return fmt.Errorf("adversary: byzantine split needs n ≥ 3f+1, got n=%d f=%d", n, f)
	}
	return nil
}

// NewByzSplitLayout computes the Theorem 10 layout (see CheckByzSplit).
func NewByzSplitLayout(n, f int) (*ByzSplitLayout, error) {
	if err := CheckByzSplit(n, f); err != nil {
		return nil, err
	}
	groupSize := (n + 3*f) / 2
	if groupSize > n {
		groupSize = n
	}
	l := &ByzSplitLayout{N: n, F: f}
	for i := 0; i < groupSize; i++ {
		l.GroupA = append(l.GroupA, i)
	}
	for i := n - groupSize; i < n; i++ {
		l.GroupB = append(l.GroupB, i)
	}
	loB, hiB := (n-f)/2, (n+f)/2
	for i := loB; i < hiB; i++ {
		l.Byzantine = append(l.Byzantine, i)
	}
	for i := 0; i < loB; i++ {
		l.AReceivers = append(l.AReceivers, i)
	}
	for i := hiB; i < n; i++ {
		l.BReceivers = append(l.BReceivers, i)
	}
	return l, nil
}

// Input returns the scenario input for node i: 0 for the low block, 1
// for the high block; Byzantine nodes get 0 (their input is irrelevant).
func (l *ByzSplitLayout) Input(i int) float64 {
	if i >= (l.N+l.F)/2 {
		return 1
	}
	return 0
}

// SendsToA reports whether receiver i hears group A (true) or group B
// (false). Byzantine receivers are wired to A arbitrarily.
func (l *ByzSplitLayout) SendsToA(i int) bool { return i < (l.N+l.F)/2 }

// Adversary returns the message adversary realizing the layout: every
// round, each A-receiver has incoming links from all of group A \ {self},
// each B-receiver from all of group B \ {self}.
func (l *ByzSplitLayout) Adversary() Adversary {
	e := network.NewEdgeSet(l.N)
	for v := 0; v < l.N; v++ {
		if l.SendsToA(v) {
			for _, u := range l.GroupA {
				e.Add(u, v)
			}
		} else {
			for _, u := range l.GroupB {
				e.Add(u, v)
			}
		}
	}
	return NewStatic(fmt.Sprintf("byzSplit(n=%d,f=%d)", l.N, l.F), e)
}

// MinFaultFreeDegree returns the per-round in-degree every fault-free
// node enjoys under the layout's adversary — ⌊(n+3f)/2⌋ − 1, exactly one
// below the Theorem 10 threshold.
func (l *ByzSplitLayout) MinFaultFreeDegree() int { return (l.N+3*l.F)/2 - 1 }
