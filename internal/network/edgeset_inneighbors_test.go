package network

import (
	"math/rand"
	"reflect"
	"testing"
)

// inNeighborsBrute recomputes v's in-neighbors off the authoritative
// out-matrix via Has — the oracle every transposed-index query must
// match after any mutation sequence.
func inNeighborsBrute(e *EdgeSet, v int) []int {
	var res []int
	for u := 0; u < e.N(); u++ {
		if u != v && e.Has(u, v) {
			res = append(res, u)
		}
	}
	return res
}

func assertTransposeConsistent(t *testing.T, e *EdgeSet, context string) {
	t.Helper()
	for v := 0; v < e.N(); v++ {
		want := inNeighborsBrute(e, v)
		if got := e.InNeighbors(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: InNeighbors(%d) = %v, want %v", context, v, got, want)
		}
		if got := e.InNeighborsInto(v, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: InNeighborsInto(%d) = %v, want %v", context, v, got, want)
		}
		if got := e.InDegree(v); got != len(want) {
			t.Fatalf("%s: InDegree(%d) = %d, want %d", context, v, got, len(want))
		}
		acc := make([]uint64, MaskWords(e.N()))
		e.InBitsInto(v, acc)
		for _, u := range want {
			if acc[u/64]&(1<<(uint(u)%64)) == 0 {
				t.Fatalf("%s: InBitsInto(%d) missing bit %d", context, v, u)
			}
		}
	}
}

// TestTransposeConsistencyUnderMutation drives every mutator on sizes
// straddling the word boundary and checks the transposed in-index stays
// in lockstep with the out-matrix.
func TestTransposeConsistencyUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130} {
		e := NewEdgeSet(n)
		for i := 0; i < 4*n; i++ {
			e.Add(rng.Intn(n), rng.Intn(n))
		}
		assertTransposeConsistent(t, e, "after Add")
		for i := 0; i < n; i++ {
			e.Remove(rng.Intn(n), rng.Intn(n))
		}
		assertTransposeConsistent(t, e, "after Remove")

		other := NewEdgeSet(n)
		other.FillComplete()
		assertTransposeConsistent(t, other, "after FillComplete")
		for i := 0; i < 2*n; i++ {
			other.Remove(rng.Intn(n), rng.Intn(n))
		}
		e.UnionWith(other)
		assertTransposeConsistent(t, e, "after UnionWith")
		e.IntersectWith(other)
		assertTransposeConsistent(t, e, "after IntersectWith")

		c := e.Clone()
		assertTransposeConsistent(t, c, "after Clone")
		c.Reset()
		assertTransposeConsistent(t, c, "after Reset")
		if c.Len() != 0 {
			t.Fatalf("n=%d: Reset left %d links", n, c.Len())
		}
		c.CopyFrom(e)
		assertTransposeConsistent(t, c, "after CopyFrom")
		if !c.Equal(e) {
			t.Fatalf("n=%d: CopyFrom not equal", n)
		}
	}
}

// TestInNeighborsIntoReusesBuffer: a recycled buffer must be appended
// to from its start with no allocation once capacity suffices.
func TestInNeighborsIntoReusesBuffer(t *testing.T) {
	e := NewEdgeSet(70)
	for u := 0; u < 70; u++ {
		e.Add(u, 69)
	}
	buf := make([]int, 0, 70)
	buf = e.InNeighborsInto(69, buf[:0])
	if len(buf) != 69 {
		t.Fatalf("got %d in-neighbors, want 69", len(buf))
	}
	again := e.InNeighborsInto(69, buf[:0])
	if &again[0] != &buf[0] {
		t.Error("sufficient buffer was not reused")
	}
}
