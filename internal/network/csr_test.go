package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSparseDenseEquivalenceProperty drives a dense and a sparse
// EdgeSet through the same randomized mutation sequence — including
// duplicate adds, removals, resets, copies and set algebra against both
// representations — and asserts every observable agrees after each
// phase. This is the representation contract the engines rely on: a
// sparse set is indistinguishable from a dense one through the public
// API.
func TestSparseDenseEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(97)
		dense, sparse := NewEdgeSet(n), NewEdgeSetSparse(n)
		if sparse.IsSparse() == dense.IsSparse() {
			t.Fatal("representation flags must differ")
		}
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(10); op {
			case 0: // burst of adds, duplicates included
				for k := 0; k < 1+rng.Intn(3*n); k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					dense.Add(u, v)
					sparse.Add(u, v)
				}
			case 1: // remove a (maybe absent) link
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					dense.Remove(u, v)
					sparse.Remove(u, v)
				}
			case 2:
				dense.Reset()
				sparse.Reset()
			case 3:
				dense.FillComplete()
				sparse.FillComplete()
			case 4: // union with a random set, in the same and the other mode
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.UnionWith(other)
				sparse.UnionWith(other)
			case 5: // intersect
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.IntersectWith(other)
				sparse.IntersectWith(other)
			case 6: // cross-mode copy
				other := randomSet(rng, n, rng.Intn(2) == 0)
				dense.CopyFrom(other)
				sparse.CopyFrom(other)
			case 7: // clone and keep going on the clones
				dense, sparse = dense.Clone(), sparse.Clone()
			default: // more adds (bias toward content)
				for k := 0; k < 1+rng.Intn(n); k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if u != v {
						dense.AddUnchecked(u, v)
						sparse.AddUnchecked(u, v)
					}
				}
			}
			assertSame(t, dense, sparse, rng)
			if t.Failed() {
				t.Fatalf("diverged at trial %d step %d", trial, step)
			}
		}
	}
}

func randomSet(rng *rand.Rand, n int, sparseMode bool) *EdgeSet {
	var s *EdgeSet
	if sparseMode {
		s = NewEdgeSetSparse(n)
	} else {
		s = NewEdgeSet(n)
	}
	for k := 0; k < rng.Intn(2*n+1); k++ {
		s.Add(rng.Intn(n), rng.Intn(n))
	}
	return s
}

// assertSame checks every observable of the two sets against each other.
func assertSame(t *testing.T, dense, sparse *EdgeSet, rng *rand.Rand) {
	t.Helper()
	n := dense.N()
	if sparse.N() != n {
		t.Fatalf("n mismatch: %d vs %d", n, sparse.N())
	}
	if dl, sl := dense.Len(), sparse.Len(); dl != sl {
		t.Errorf("Len: dense %d, sparse %d", dl, sl)
		return
	}
	if !dense.Equal(sparse) || !sparse.Equal(dense) {
		t.Error("Equal disagrees across representations")
		return
	}
	accD := make([]uint64, MaskWords(n))
	accS := make([]uint64, MaskWords(n))
	for v := 0; v < n; v++ {
		if di, si := dense.InDegree(v), sparse.InDegree(v); di != si {
			t.Errorf("InDegree(%d): dense %d, sparse %d", v, di, si)
		}
		if do, so := dense.OutDegree(v), sparse.OutDegree(v); do != so {
			t.Errorf("OutDegree(%d): dense %d, sparse %d", v, do, so)
		}
		din := dense.InNeighborsInto(v, nil)
		sin := sparse.InNeighborsInto(v, nil)
		if !equalInts(din, sin) {
			t.Errorf("InNeighbors(%d): dense %v, sparse %v", v, din, sin)
		}
		if !equalInts(dense.OutNeighbors(v), sparse.OutNeighbors(v)) {
			t.Errorf("OutNeighbors(%d) differ", v)
		}
		clear(accD)
		clear(accS)
		dense.InBitsInto(v, accD)
		sparse.InBitsInto(v, accS)
		for w := range accD {
			if accD[w] != accS[w] {
				t.Errorf("InBitsInto(%d) word %d: %x vs %x", v, w, accD[w], accS[w])
			}
		}
		u := rng.Intn(n)
		if dh, sh := dense.Has(u, v), sparse.Has(u, v); dh != sh {
			t.Errorf("Has(%d,%d): dense %v, sparse %v", u, v, dh, sh)
		}
	}
	// CSR views agree with the bit rows, and Edges round-trips.
	de, se := dense.Edges(), sparse.Edges()
	if len(de) != len(se) {
		t.Errorf("Edges length: dense %d, sparse %d", len(de), len(se))
		return
	}
	for i := range de {
		if de[i] != se[i] {
			t.Errorf("Edges[%d]: dense %v, sparse %v", i, de[i], se[i])
			return
		}
	}
	if sparse.IsSparse() {
		starts, ids := sparse.InCSR()
		for v := 0; v < n; v++ {
			row := ids[starts[v]:starts[v+1]]
			din := dense.InNeighborsInto(v, nil)
			if len(row) != len(din) {
				t.Errorf("InCSR row %d length %d, want %d", v, len(row), len(din))
				continue
			}
			for i, u := range row {
				if int(u) != din[i] {
					t.Errorf("InCSR row %d entry %d: %d, want %d", v, i, u, din[i])
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSparseResetKeepsZeroAllocRounds pins the headroom discipline: after
// warmup, a Reset + refill cycle at a steady edge count performs no
// allocations, including when a later round modestly exceeds the prior
// maximum (the log keeps 50% headroom over the high-water mark).
func TestSparseResetKeepsZeroAllocRounds(t *testing.T) {
	const n = 4096
	s := NewEdgeSetSparse(n)
	fill := func(edges int) {
		s.Reset()
		for k := 0; k < edges; k++ {
			// uint32 arithmetic: the multiplier overflows a 32-bit int, and
			// 4096 divides 2³², so the residues match the 64-bit ones.
			u := int(uint32(k) * 2654435761 % n)
			v := (u + 1 + k%(n-1)) % n
			s.AddUnchecked(u, v)
		}
		_ = s.Len() // force the build
	}
	fill(8 * n) // warmup establishes the watermark
	fill(8 * n)
	avg := testing.AllocsPerRun(20, func() { fill(8*n + 100) })
	if avg != 0 {
		t.Errorf("steady Reset+refill allocated %g times, want 0", avg)
	}
}

// TestSparseResetRegrowsOnlyPastHeadroom: rounds that each beat the
// edge-count record by one pair reallocate the log at most once — a new
// record that still fits the headroom costs no regrowth.
func TestSparseResetRegrowsOnlyPastHeadroom(t *testing.T) {
	const n = 2048
	s := NewEdgeSetSparse(n)
	changes := 0
	for pairs := 1000; pairs <= 1100; pairs++ {
		for k := 0; k < pairs; k++ {
			s.AddUnchecked(k%n, (k+1)%n)
		}
		before := cap(s.csr.pairs)
		s.Reset()
		if cap(s.csr.pairs) != before {
			changes++
		}
	}
	if changes > 1 {
		t.Errorf("101 Resets after record logs changed the log capacity %d times, want at most 1", changes)
	}
}

// TestFillCompleteConvertsSparse checks the representation change and
// that the converted set behaves like Complete(n).
func TestFillCompleteConvertsSparse(t *testing.T) {
	s := NewEdgeSetSparse(67)
	s.Add(1, 2)
	s.FillComplete()
	if s.IsSparse() {
		t.Fatal("FillComplete should convert to dense")
	}
	if got, want := s.Len(), 67*66; got != want {
		t.Fatalf("complete graph has %d links, want %d", got, want)
	}
	if s.Has(5, 5) {
		t.Fatal("self-loop present after FillComplete")
	}
}

// randomPairLog draws a mutation log the way generators produce one:
// random pairs (unsorted rows, duplicates), a rotating in-regular graph
// emitted receiver-major (ascending rows, bar the ones that wrap around
// n), a lexicographic sender-major sample, or a layering of two of them
// (so one link is logged twice). Rows of nodes nothing picks stay empty.
func randomPairLog(rng *rand.Rand, n int) [][2]int {
	var log [][2]int
	emit := func(kind int) {
		switch kind {
		case 0:
			for k := rng.Intn(4 * n); k > 0; k-- {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					log = append(log, [2]int{u, v})
				}
			}
		case 1:
			d, offset := rng.Intn(min(n, 5)), rng.Intn(n)
			for v := 0; v < n; v++ {
				for j := 1; j <= d; j++ {
					if u := (v + offset + j) % n; u != v {
						log = append(log, [2]int{u, v})
					}
				}
			}
		default:
			p := rng.Float64() * 0.2
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && rng.Float64() < p {
						log = append(log, [2]int{u, v})
					}
				}
			}
		}
	}
	emit(rng.Intn(3))
	if rng.Intn(2) == 0 {
		emit(rng.Intn(3))
	}
	return log
}

// TestLazyViewsProperty pins the two CSR views' independence: over
// random pair logs at word-boundary sizes, building receiver-major
// first or sender-major first yields the same two views, both equal to
// the dense reference; a build touches only the view that was asked
// for; Len is answerable — and right — at every point; and a mutation
// after either build invalidates both.
func TestLazyViewsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}
	for trial := 0; trial < 300; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		log := randomPairLog(rng, n)
		extra := [2]int{rng.Intn(n), rng.Intn(n)} // the later mutation; may be a self-loop (a no-op Add)

		dense := NewEdgeSet(n)
		fill := func(s *EdgeSet) {
			for _, p := range log {
				s.AddUnchecked(p[0], p[1])
			}
		}
		fill(dense)

		check := func(s *EdgeSet, ref *EdgeSet, when string) {
			t.Helper()
			want := ref.Edges()
			if got := s.Len(); got != len(want) {
				t.Fatalf("trial %d (n=%d) %s: Len %d, dense reference has %d", trial, n, when, got, len(want))
			}
			outStarts, outIDs := s.OutCSR()
			if got := s.Len(); got != len(want) || int(outStarts[n]) != len(want) {
				t.Fatalf("trial %d (n=%d) %s: Len %d / out total %d after OutCSR, want %d", trial, n, when, got, outStarts[n], len(want))
			}
			i := 0
			for u := 0; u < n; u++ {
				for _, v := range outIDs[outStarts[u]:outStarts[u+1]] {
					if want[i] != [2]int{u, int(v)} {
						t.Fatalf("trial %d (n=%d) %s: out view edge %d is %d→%d, want %v", trial, n, when, i, u, v, want[i])
					}
					i++
				}
			}
			inStarts, inIDs := s.InCSR()
			if got := s.Len(); got != len(want) || int(inStarts[n]) != len(want) {
				t.Fatalf("trial %d (n=%d) %s: Len %d / in total %d after InCSR, want %d", trial, n, when, got, inStarts[n], len(want))
			}
			for v := 0; v < n; v++ {
				row, wantRow := inIDs[inStarts[v]:inStarts[v+1]], ref.InNeighbors(v)
				if len(row) != len(wantRow) {
					t.Fatalf("trial %d (n=%d) %s: in row %d is %v, want %v", trial, n, when, v, row, wantRow)
				}
				for j, u := range row {
					if int(u) != wantRow[j] {
						t.Fatalf("trial %d (n=%d) %s: in row %d is %v, want %v", trial, n, when, v, row, wantRow)
					}
				}
			}
		}

		inFirst, outFirst := NewEdgeSetSparse(n), NewEdgeSetSparse(n)
		fill(inFirst)
		fill(outFirst)

		inFirst.InCSR()
		if got := inFirst.Len(); got != dense.Len() {
			t.Fatalf("trial %d (n=%d): Len %d off the in view alone, want %d", trial, n, got, dense.Len())
		}
		if inFirst.csr.built != viewIn {
			t.Fatalf("trial %d: InCSR then Len built views %02b, want the receiver-major one only", trial, inFirst.csr.built)
		}
		outFirst.OutCSR()
		if got := outFirst.Len(); got != dense.Len() {
			t.Fatalf("trial %d (n=%d): Len %d off the out view alone, want %d", trial, n, got, dense.Len())
		}
		if outFirst.csr.built != viewOut {
			t.Fatalf("trial %d: OutCSR then Len built views %02b, want the sender-major one only", trial, outFirst.csr.built)
		}
		check(inFirst, dense, "in-first")
		check(outFirst, dense, "out-first")

		// A mutation after either build order invalidates both views.
		for _, s := range []*EdgeSet{inFirst, outFirst, dense} {
			if trial%2 == 0 {
				s.Add(extra[0], extra[1])
			} else if len(log) > 0 {
				s.Remove(log[0][0], log[0][1])
			}
		}
		if (trial%2 == 0 && extra[0] != extra[1]) || (trial%2 == 1 && len(log) > 0) {
			if inFirst.csr.built != 0 || outFirst.csr.built != 0 {
				t.Fatalf("trial %d: views survived a mutation (%02b, %02b)", trial, inFirst.csr.built, outFirst.csr.built)
			}
		}
		check(inFirst, dense, "in-first, mutated")
		check(outFirst, dense, "out-first, mutated")
	}
}

// TestViewFirstSetProperty: a set InRegularInto wrote (its
// receiver-major view holds the links; the log is derived on demand)
// answers every reader and takes every mutation as the same graph
// logged link by link does, through a random sequence of operations
// that each read the view, append to the log beside it, or derive the
// log and filter it. Most steps are not compared right away, so an
// operation often meets a set whose log is still underived.
func TestViewFirstSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sizes := []int{2, 3, 9, 63, 64, 65, 130}
	for trial := 0; trial < 300; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		d, offset := rng.Intn(n), rng.Intn(3*n)
		got, want := NewEdgeSetSparse(n), NewEdgeSetSparse(n)
		InRegularInto(got, d, offset)
		for v := 0; v < n; v++ { // the same links, logged one by one
			for _, u := range got.InList(v) {
				want.AddUnchecked(int(u), v)
			}
		}
		for step := 0; step < 4; step++ {
			op := rng.Intn(9)
			switch u, v := rng.Intn(n), rng.Intn(n); op {
			case 0:
				got.Add(u, v)
				want.Add(u, v)
			case 1:
				got.Remove(u, v)
				want.Remove(u, v)
			case 2:
				roles := randomRoles(rng, n, 0.6)
				got.KeepBetween(roles)
				want.KeepBetween(roles)
			case 3:
				keep := func(u, v int) bool { return (u*7+v*3)%4 != 0 }
				got.Retain(keep)
				want.Retain(keep)
			case 4:
				if got.Has(u, v) != want.Has(u, v) {
					t.Fatalf("trial %d step %d: Has(%d, %d) = %v", trial, step, u, v, !want.Has(u, v))
				}
			case 5:
				got = got.Clone()
			case 6:
				other := NewEdgeSetSparse(n)
				InRegularInto(other, rng.Intn(n), rng.Intn(n))
				ref := other.Clone()
				got.IntersectWith(other)
				want.IntersectWith(ref)
			case 7:
				word := rng.Uint64() // word 0 of u's out-row
				if n < 64 {
					word &= 1<<uint(n) - 1
				}
				if u < 64 {
					word &^= 1 << uint(u)
				}
				got.AddOutWord(u, 0, word)
				want.AddOutWord(u, 0, word)
			default:
				d, offset = rng.Intn(n), rng.Intn(n)
				InRegularInto(got, d, offset)
				inRegularModular(want, d, offset)
			}
			if step < 3 && rng.Intn(3) != 0 {
				continue // compare later: the comparison derives got's log
			}
			if !slices.Equal(got.Edges(), want.Edges()) || got.Len() != want.Len() {
				t.Fatalf("trial %d (n=%d) step %d op %d: links %v, want %v", trial, n, step, op, got.Edges(), want.Edges())
			}
			assertSameInCSR(t, got, want, fmt.Sprintf("trial %d (n=%d) step %d op %d", trial, n, step, op))
		}
	}
}

// TestLazyViewRebuildsAllocateNothing: once the log and both lists have
// seen the edge count, Reset + refill + build allocates nothing,
// whichever views the round asks for.
func TestLazyViewRebuildsAllocateNothing(t *testing.T) {
	const n = 2049
	s := NewEdgeSetSparse(n)
	round := func(in, out bool) {
		InRegularInto(s, 4, 7)
		if in {
			s.InCSR()
		}
		if out {
			s.OutCSR()
		}
		_ = s.Len()
	}
	round(true, true) // warmup sizes the log and both lists
	round(true, true)
	for _, c := range []struct {
		name    string
		in, out bool
	}{{"in", true, false}, {"out", false, true}, {"both", true, true}, {"len", false, false}} {
		if avg := testing.AllocsPerRun(20, func() { round(c.in, c.out) }); avg != 0 {
			t.Errorf("%s: steady rebuild allocated %g times, want 0", c.name, avg)
		}
	}
}

// OutCSR exposes the sender-major CSR view: starts has n+1 prefix
// offsets and ids[starts[u]:starts[u+1]] lists u's receivers in
// ascending order. Sparse mode only; the slices alias internal storage,
// are valid until the next mutation, and must be treated as read-only.
func (e *EdgeSet) OutCSR() (starts, ids []int32) {
	c := e.mustSparse("OutCSR")
	e.buildOut()
	return c.outStart, c.outList
}
