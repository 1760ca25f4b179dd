package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEdgeSetBasics(t *testing.T) {
	e := NewEdgeSet(5)
	if e.N() != 5 {
		t.Fatalf("N = %d, want 5", e.N())
	}
	e.Add(0, 1)
	e.Add(3, 1)
	e.Add(1, 0)
	if !e.Has(0, 1) || !e.Has(3, 1) || !e.Has(1, 0) {
		t.Error("added edges missing")
	}
	if e.Has(1, 3) {
		t.Error("phantom edge (direction confusion?)")
	}
	if got := e.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	e.Remove(0, 1)
	if e.Has(0, 1) {
		t.Error("removed edge still present")
	}
	if got := e.Len(); got != 2 {
		t.Errorf("Len after remove = %d, want 2", got)
	}
}

func TestEdgeSetSelfLoopIgnored(t *testing.T) {
	e := NewEdgeSet(3)
	e.Add(1, 1)
	if e.Has(1, 1) || e.Len() != 0 {
		t.Error("self-loop stored (model forbids them)")
	}
}

func TestEdgeSetNeighbors(t *testing.T) {
	e := NewEdgeSet(6)
	e.Add(0, 3)
	e.Add(0, 5)
	e.Add(2, 3)
	e.Add(4, 3)
	if got, want := e.OutNeighbors(0), []int{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("OutNeighbors(0) = %v, want %v", got, want)
	}
	if got, want := e.InNeighbors(3), []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("InNeighbors(3) = %v, want %v", got, want)
	}
	if got := e.InDegree(3); got != 3 {
		t.Errorf("InDegree(3) = %d, want 3", got)
	}
	if got := e.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := e.InNeighbors(1); got != nil {
		t.Errorf("InNeighbors(1) = %v, want nil", got)
	}
}

func TestEdgeSetLargeN(t *testing.T) {
	// Cross the 64-bit word boundary.
	n := 130
	e := NewEdgeSet(n)
	e.Add(0, 64)
	e.Add(0, 127)
	e.Add(129, 64)
	if !e.Has(0, 64) || !e.Has(0, 127) || !e.Has(129, 64) {
		t.Error("edges across word boundaries lost")
	}
	if got := e.InDegree(64); got != 2 {
		t.Errorf("InDegree(64) = %d, want 2", got)
	}
	if got, want := e.OutNeighbors(0), []int{64, 127}; !reflect.DeepEqual(got, want) {
		t.Errorf("OutNeighbors(0) = %v, want %v", got, want)
	}
}

func TestEdgeSetCloneIsDeep(t *testing.T) {
	e := NewEdgeSet(4)
	e.Add(0, 1)
	c := e.Clone()
	c.Add(2, 3)
	if e.Has(2, 3) {
		t.Error("clone shares storage with original")
	}
	if !c.Has(0, 1) {
		t.Error("clone lost an edge")
	}
}

func TestEdgeSetUnionWith(t *testing.T) {
	a := NewEdgeSet(4)
	a.Add(0, 1)
	b := NewEdgeSet(4)
	b.Add(2, 3)
	b.Add(0, 1)
	a.UnionWith(b)
	if !a.Has(0, 1) || !a.Has(2, 3) {
		t.Error("union missing edges")
	}
	if a.Len() != 2 {
		t.Errorf("union Len = %d, want 2", a.Len())
	}
}

func TestEdgeSetEqual(t *testing.T) {
	a := NewEdgeSet(4)
	a.Add(0, 1)
	b := NewEdgeSet(4)
	if a.Equal(b) {
		t.Error("unequal sets compared equal")
	}
	b.Add(0, 1)
	if !a.Equal(b) {
		t.Error("equal sets compared unequal")
	}
	if a.Equal(nil) {
		t.Error("nil compared equal")
	}
	if a.Equal(NewEdgeSet(5)) {
		t.Error("different-size sets compared equal")
	}
}

func TestEdgeSetEdgesRoundTrip(t *testing.T) {
	e := NewEdgeSet(5)
	e.Add(4, 0)
	e.Add(1, 2)
	pairs := e.Edges()
	rebuilt := NewEdgeSet(5)
	for _, p := range pairs {
		rebuilt.Add(p[0], p[1])
	}
	if !e.Equal(rebuilt) {
		t.Error("Edges() round trip lost information")
	}
}

func TestEdgeSetPanicsOnRange(t *testing.T) {
	e := NewEdgeSet(3)
	mustPanic(t, func() { e.Add(0, 3) })
	mustPanic(t, func() { e.Add(-1, 0) })
	mustPanic(t, func() { e.Has(3, 0) })
	mustPanic(t, func() { NewEdgeSet(0) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// TestEdgeSetQuick: the bitset representation agrees with a naive map
// under random edge insertions and deletions.
func TestEdgeSetQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	property := func(ops []uint16, nRaw uint8) bool {
		n := int(nRaw)%90 + 2
		e := NewEdgeSet(n)
		ref := make(map[[2]int]bool)
		for _, op := range ops {
			u := int(op) % n
			v := int(op>>4) % n
			if u == v {
				continue
			}
			if op&1 == 0 {
				e.Add(u, v)
				ref[[2]int{u, v}] = true
			} else {
				e.Remove(u, v)
				delete(ref, [2]int{u, v})
			}
		}
		if e.Len() != len(ref) {
			return false
		}
		for p := range ref {
			if !e.Has(p[0], p[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// UnionWith merges other's links into e in place. Both sets must share
// n; the representations may differ.
func (e *EdgeSet) UnionWith(other *EdgeSet) {
	if other.n != e.n {
		panic(fmt.Sprintf("network: union of mismatched sizes %d and %d", e.n, other.n))
	}
	switch {
	case e.csr != nil && other.csr != nil:
		// The log admits duplicates (build dedups), so a union is an append.
		e.csr.pairs = append(e.csr.pairs, other.csr.pairs...)
		e.csr.built = 0
	case e.csr != nil || other.csr != nil:
		other.forEachEdge(func(u, v int) bool {
			e.AddUnchecked(u, v)
			return true
		})
	default:
		for i, w := range other.out {
			e.out[i] |= w
		}
		for i, w := range other.in {
			e.in[i] |= w
		}
	}
}
