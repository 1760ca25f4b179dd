package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestComplete(t *testing.T) {
	n := 5
	e := Complete(n)
	if got, want := e.Len(), n*(n-1); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for v := 0; v < n; v++ {
		if e.InDegree(v) != n-1 {
			t.Errorf("InDegree(%d) = %d, want %d", v, e.InDegree(v), n-1)
		}
		if e.Has(v, v) {
			t.Errorf("self-loop at %d", v)
		}
	}
}

func TestRing(t *testing.T) {
	e := Ring(4)
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
	if !e.Has(3, 0) || !e.Has(0, 1) {
		t.Error("ring edges wrong")
	}
	if e.Has(1, 0) {
		t.Error("ring should be directed")
	}
}

// inRegular returns InRegularInto's graph on a fresh set.
func inRegular(n, d, offset int) *EdgeSet {
	e := NewEdgeSet(n)
	InRegularInto(e, d, offset)
	return e
}

func TestInRegular(t *testing.T) {
	for _, tt := range []struct{ n, d, offset int }{
		{5, 2, 0}, {5, 2, 3}, {7, 3, 1}, {4, 3, 0}, {6, 1, 5}, {3, 2, 2},
	} {
		e := inRegular(tt.n, tt.d, tt.offset)
		for v := 0; v < tt.n; v++ {
			if got := e.InDegree(v); got != tt.d {
				t.Errorf("InRegular(%d,%d,%d): InDegree(%d) = %d, want %d",
					tt.n, tt.d, tt.offset, v, got, tt.d)
			}
			if e.Has(v, v) {
				t.Errorf("InRegular(%d,%d,%d): self-loop at %d", tt.n, tt.d, tt.offset, v)
			}
		}
	}
	mustPanic(t, func() { inRegular(5, 5, 0) })
	mustPanic(t, func() { inRegular(5, -1, 0) })
}

// inRegularModular is InRegularInto as first written, one modulo and one
// checked Add per candidate sender: the reference the stepped,
// unchecked generator is held to.
func inRegularModular(e *EdgeSet, d, offset int) {
	n := e.N()
	e.Reset()
	for v := 0; v < n; v++ {
		added := 0
		for j := 1; added < d && j <= n; j++ {
			u := (v + offset + j) % n
			if u == v {
				continue
			}
			e.Add(u, v)
			added++
		}
	}
}

// TestInRegularIntoMatchesModularLoop: InRegularInto builds the modular
// reference's graph over every size, degree and offset class (offsets
// past n wrap), in both representations: the same bits dense (Equal),
// and sparse the receiver-major view compacted from the modular loop's
// log — written directly, with no log — also after KeepBetween, which
// derives the log and filters it. The log derived from the view on
// demand is receiver-major and compacts to the same view (see
// assertReceiverMajorView), before and after KeepBetween, and the set
// it stands for equals the dense one. An out-of-range degree still
// panics.
func TestInRegularIntoMatchesModularLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{2, 3, 9, 2049} {
		for _, d := range []int{0, 1, 4, n - 1} {
			if d > n-1 {
				continue
			}
			for _, offset := range []int{0, 1, n - 1, n, 3*n + 2} {
				wantLog := NewEdgeSetSparse(n)
				inRegularModular(wantLog, d, offset)
				want := NewEdgeSet(n)
				for _, p := range wantLog.csr.pairs {
					want.Add(int(p>>32), int(uint32(p)))
				}
				name := fmt.Sprintf("n=%d d=%d offset=%d", n, d, offset)
				for _, got := range []*EdgeSet{NewEdgeSet(n), NewEdgeSetSparse(n)} {
					got.Add(1, 0) // stale content must vanish
					InRegularInto(got, d, offset)
					if !got.IsSparse() {
						if !got.Equal(want) {
							t.Fatalf("dense %s: graph differs from the modular loop's", name)
						}
						continue
					}
					if !got.csr.fromView || len(got.csr.pairs) != 0 {
						t.Fatalf("sparse %s: InRegularInto wrote a log", name)
					}
					assertSameInCSR(t, got, wantLog, name)
					// The derived-log checks rebuild the log; for its 4M links
					// at n = 2049, d = n−1, one wrapping offset is enough.
					if n*d >= 1<<20 && offset != n-1 {
						continue
					}
					derived := NewEdgeSetSparse(n)
					InRegularInto(derived, d, offset)
					assertReceiverMajorView(t, derived, name+" derived log")
					if !derived.Equal(want) {
						t.Fatalf("sparse %s: derived log's graph differs from the modular loop's", name)
					}
					roles := randomRoles(rng, n, 0.7)
					got.KeepBetween(roles)
					wantLog.KeepBetween(roles)
					derived.KeepBetween(roles)
					assertSameInCSR(t, got, wantLog, name+" after KeepBetween")
					assertReceiverMajorView(t, derived, name+" derived log after KeepBetween")
					assertSameInCSR(t, derived, wantLog, name+" derived log after KeepBetween")
				}
			}
		}
		mustPanic(t, func() { InRegularInto(NewEdgeSet(n), n, 0) })
		mustPanic(t, func() { InRegularInto(NewEdgeSetSparse(n), n, 0) })
		mustPanic(t, func() { InRegularInto(NewEdgeSet(n), -1, 0) })
		mustPanic(t, func() { InRegularInto(NewEdgeSetSparse(n), -1, 0) })
	}
}

// assertReceiverMajorView checks a receiver-major log's view, deriving
// the log first if the view holds it: the log's receivers never
// decrease, so its receiver-major view takes the copy in
// compactGeneral, and that view equals the one compactGeneral scatters
// from the same log with its first row moved to the end (where the
// receivers decrease, unless the log has at most one row).
func assertReceiverMajorView(t *testing.T, s *EdgeSet, name string) {
	t.Helper()
	s.csr.syncLog()
	pairs := s.csr.pairs
	if !copyReceiverMajor(pairs, make([]int32, s.N()+1), make([]int32, len(pairs))) {
		t.Fatalf("%s: log is not receiver-major", name)
	}
	k := 0
	for k < len(pairs) && uint32(pairs[k]) == uint32(pairs[0]) {
		k++
	}
	moved := NewEdgeSetSparse(s.N())
	for _, p := range append(slices.Clone(pairs[k:]), pairs[:k]...) {
		moved.AddUnchecked(int(p>>32), int(uint32(p)))
	}
	s.csr.built = 0 // compact the log itself
	assertSameInCSR(t, s, moved, name)
}

// assertSameInCSR checks that got and want have equal receiver-major
// views and link counts.
func assertSameInCSR(t *testing.T, got, want *EdgeSet, name string) {
	t.Helper()
	gs, gi := got.InCSR()
	ws, wi := want.InCSR()
	n := got.N()
	if !slices.Equal(gs, ws) || !slices.Equal(gi[:gs[n]], wi[:ws[n]]) || got.Len() != want.Len() {
		t.Fatalf("%s: receiver-major view\n  starts %v ids %v, want\n  starts %v ids %v",
			name, gs, gi[:gs[n]], ws, wi[:ws[n]])
	}
}

// TestReceiverMajorCompaction: hand-made receiver-major logs — with a
// link logged twice, with a row out of order, pruned by KeepBetween —
// give the receiver-major view of their links, sorted and deduplicated
// (a set built through the dense bitmap, and converted, holds the
// links once and in order), and so does a log whose receivers decrease
// only at its last pair, which must fall back to the scatter.
func TestReceiverMajorCompaction(t *testing.T) {
	const n = 6
	for _, c := range []struct {
		name          string
		links         [][2]int
		roles         []uint8 // KeepBetween's, when not nil
		receiverMajor bool
	}{
		{name: "duplicates", links: [][2]int{{1, 0}, {2, 0}, {2, 0}, {3, 2}, {3, 2}, {5, 2}, {0, 5}, {0, 5}}, receiverMajor: true},
		{name: "unsorted row", links: [][2]int{{4, 0}, {5, 1}, {3, 1}, {0, 1}, {2, 3}, {1, 3}, {1, 4}}, receiverMajor: true},
		{name: "unsorted row with duplicates", links: [][2]int{{5, 1}, {3, 1}, {5, 1}, {0, 1}, {3, 1}}, receiverMajor: true},
		{name: "pruned", links: [][2]int{{2, 0}, {5, 0}, {1, 0}, {0, 2}, {4, 2}, {3, 4}, {0, 5}, {4, 5}},
			roles: []uint8{Sends | Receives, Receives, Sends | Receives, Sends, Sends | Receives, Sends}, receiverMajor: true},
		{name: "last pair decreases", links: [][2]int{{1, 0}, {2, 1}, {0, 1}, {0, 3}, {4, 5}, {2, 5}, {3, 2}}},
	} {
		got := NewEdgeSetSparse(n)
		dense := NewEdgeSet(n)
		for _, l := range c.links {
			got.AddUnchecked(l[0], l[1])
			dense.AddUnchecked(l[0], l[1])
		}
		if c.roles != nil {
			got.KeepBetween(c.roles)
			dense.KeepBetween(c.roles)
		}
		if rm := copyReceiverMajor(got.csr.pairs, make([]int32, n+1), make([]int32, len(got.csr.pairs))); rm != c.receiverMajor {
			t.Fatalf("%s: copyReceiverMajor = %v, want %v", c.name, rm, c.receiverMajor)
		}
		want := NewEdgeSetSparse(n)
		want.CopyFrom(dense)
		assertSameInCSR(t, got, want, c.name)
	}
}

func TestInRegularRotationChangesNeighbors(t *testing.T) {
	// Consecutive offsets must rotate the in-neighbor sets; over n/d
	// rounds every node should accumulate all n−1 distinct neighbors.
	n, d := 7, 2
	tr := make(Trace, 4)
	for r := range tr {
		tr[r] = inRegular(n, d, (r*d)%n)
	}
	// 4 rounds × 2 fresh in-neighbors = 8 > 6, but overlaps cap at 6.
	if got := MaxDynaDegree(tr, allNodes(n), 4); got < 6 {
		t.Errorf("4-round union degree = %d, want n−1 = 6 (rotation too slow)", got)
	}
}

func TestGroupComplete(t *testing.T) {
	e := GroupComplete(6, []int{0, 1, 2}, []int{3, 4})
	if e.Len() != 6+2 {
		t.Errorf("Len = %d, want 8", e.Len())
	}
	if !e.Has(0, 2) || !e.Has(4, 3) {
		t.Error("intra-group edges missing")
	}
	if e.Has(2, 3) || e.Has(3, 0) {
		t.Error("cross-group edge present")
	}
	if e.InDegree(5) != 0 {
		t.Error("ungrouped node should be isolated")
	}
}
