package anondyn

import (
	"math/rand"
	"testing"
)

// streamSeeds covers zero (math/rand's 89482311 stand-in), both signs
// and a seed past 2³¹−1, which the generator reduces.
var streamSeeds = []int64{0, 1, -1, 7, 1 << 40}

// TestRandomInputsStreamPinned: RandomInputs is the first n Float64
// draws of rand.NewSource(seed), at sizes below and past the
// generator's 607-word register.
func TestRandomInputsStreamPinned(t *testing.T) {
	for _, n := range []int{1, 9, 1500} {
		for _, seed := range streamSeeds {
			ref := rand.New(rand.NewSource(seed))
			for i, got := range RandomInputs(n, seed) {
				if want := ref.Float64(); got != want {
					t.Fatalf("n=%d seed %d input %d: %v, math/rand %v", n, seed, i, got, want)
				}
			}
		}
	}
}

// TestRandomInputsOneAllocation: the generator lives on the stack, so
// the returned slice is RandomInputs' only allocation.
func TestRandomInputsOneAllocation(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		RandomInputs(9, seed)
	})
	if allocs != 1 {
		t.Errorf("RandomInputs(9, seed) allocates %v objects, want 1", allocs)
	}
}

// TestRandomPortsStreamPinned: under RandomPorts, node i's numbering is
// the i-th rand.Perm(N) of rand.NewSource(Seed).
func TestRandomPortsStreamPinned(t *testing.T) {
	const n = 11
	for _, seed := range streamSeeds {
		ports := Scenario{N: n, RandomPorts: true, Seed: seed}.ports()
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			for node, port := range ref.Perm(n) {
				if got := ports[i].Port(node); got != port {
					t.Fatalf("seed %d node %d: sender %d on port %d, math/rand %d", seed, i, node, got, port)
				}
			}
		}
	}
}
