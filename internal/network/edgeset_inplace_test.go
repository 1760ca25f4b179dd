package network

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomEdgeSet draws each link independently with probability p.
func randomEdgeSet(n int, p float64, rng *rand.Rand) *EdgeSet {
	e := NewEdgeSet(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				e.Add(u, v)
			}
		}
	}
	return e
}

func TestEdgeSetReset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := randomEdgeSet(67, 0.4, rng)
	if e.Len() == 0 {
		t.Fatal("random set came out empty")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Reset left %d links", e.Len())
	}
	if !e.Equal(NewEdgeSet(67)) {
		t.Fatal("Reset set differs from a fresh empty set")
	}
	// The set must remain fully usable after Reset.
	e.Add(3, 5)
	if !e.Has(3, 5) || e.Len() != 1 {
		t.Fatal("Add after Reset misbehaved")
	}
}

func TestEdgeSetCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randomEdgeSet(65, 0.3, rng)
	src.Remove(0, 64)
	dst := randomEdgeSet(65, 0.7, rng)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom did not reproduce the source")
	}
	// Copies are independent.
	dst.Add(0, 64)
	if src.Has(0, 64) {
		t.Fatal("CopyFrom aliased the source storage")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across sizes did not panic")
		}
	}()
	dst.CopyFrom(NewEdgeSet(3))
}

func TestFillComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 63, 64, 65, 128, 130} {
		e := NewEdgeSet(n)
		e.Add(0, n-1) // pre-existing garbage must be overwritten, not unioned
		e.FillComplete()
		want := n * (n - 1)
		if got := e.Len(); got != want {
			t.Fatalf("n=%d: FillComplete has %d links, want %d", n, got, want)
		}
		for u := 0; u < n; u++ {
			if e.Has(u, u) {
				t.Fatalf("n=%d: self-loop at %d", n, u)
			}
		}
	}
}

func TestInNeighborsInDegreeWordWise(t *testing.T) {
	// The strided column scan must agree with a per-edge reference on
	// sizes straddling word boundaries.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 63, 64, 65, 129} {
		e := randomEdgeSet(n, 0.35, rng)
		for v := 0; v < n; v++ {
			var want []int
			for u := 0; u < n; u++ {
				if e.Has(u, v) {
					want = append(want, u)
				}
			}
			got := e.InNeighbors(v)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d v=%d: InNeighbors %v, want %v", n, v, got, want)
			}
			if d := e.InDegree(v); d != len(want) {
				t.Fatalf("n=%d v=%d: InDegree %d, want %d", n, v, d, len(want))
			}
		}
	}
}

func TestInRegularIntoMatchesInRegular(t *testing.T) {
	e := NewEdgeSet(11)
	e.FillComplete() // stale content must vanish
	InRegularInto(e, 3, 5)
	if !e.Equal(inRegular(11, 3, 5)) {
		t.Fatal("InRegularInto over a full set differs from InRegularInto over an empty one")
	}
}

func TestGroupCompleteIntoMatchesGroupComplete(t *testing.T) {
	groups := [][]int{{0, 2, 4}, {1, 3, 5, 6}}
	e := NewEdgeSet(8)
	e.FillComplete()
	GroupCompleteInto(e, groups...)
	if !e.Equal(GroupComplete(8, groups...)) {
		t.Fatal("GroupCompleteInto differs from GroupComplete")
	}
}
