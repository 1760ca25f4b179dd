package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomRoles gives each of n nodes Sends and Receives, each with
// probability p, and garbage in the other bits of its byte.
func randomRoles(rng *rand.Rand, n int, p float64) []uint8 {
	roles := make([]uint8, n)
	for i := range roles {
		roles[i] = uint8(rng.Intn(256)) &^ (Sends | Receives)
		if rng.Float64() < p {
			roles[i] |= Sends
		}
		if rng.Float64() < p {
			roles[i] |= Receives
		}
	}
	return roles
}

// TestKeepBetweenMatchesRetain: over sorted, shuffled and duplicated
// logs and dense sets, with or without views built beforehand and roles
// that keep everything, nothing or some, KeepBetween leaves exactly the
// links Retain with the same filter leaves — the same edge list and,
// sparse, both views equal to a fresh build. A sparse log keeps its
// order (it is the filtered input, pair for pair), no view is built by
// the pass, and views survive a pass that drops nothing.
func TestKeepBetweenMatchesRetain(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	sizes := []int{1, 2, 3, 63, 64, 65, 129, 200}
	for trial := 0; trial < 600; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		log := ascendingLog(rng, n, rng.Float64()*0.2)
		shape := []string{"sorted", "shuffled", "duplicated", "dense"}[trial%4]
		switch shape {
		case "shuffled":
			rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
		case "duplicated":
			for k := len(log) / 3; k > 0; k-- {
				log = append(log, log[rng.Intn(len(log))])
			}
			rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
		}
		keepRate := []float64{0, 0.25, 0.9, 1}[rng.Intn(4)]
		roles := randomRoles(rng, n, keepRate)
		keep := func(u, v int) bool { return roles[u]&Sends != 0 && roles[v]&Receives != 0 }

		var got, want *EdgeSet
		if shape == "dense" {
			got, want = NewEdgeSet(n), NewEdgeSet(n)
			for _, p := range log {
				got.AddUnchecked(p[0], p[1])
				want.AddUnchecked(p[0], p[1])
			}
		} else {
			got, want = sparseFrom(n, log), sparseFrom(n, log)
		}
		prebuilt := rng.Intn(3) // 0: no view, 1: receiver-major, 2: both
		if got.IsSparse() && prebuilt > 0 {
			got.InCSR()
			if prebuilt == 2 {
				got.OutCSR()
			}
		}
		var before []uint64
		var viewsBefore uint8
		if got.IsSparse() {
			before = slices.Clone(got.csr.pairs)
			viewsBefore = got.csr.built
		}
		got.KeepBetween(roles)
		var builtAfter uint8
		if got.IsSparse() {
			builtAfter = got.csr.built
		}
		want.Retain(keep)
		label := func() string { return fmt.Sprintf("trial %d (%s)", trial, shape) }
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("%s (n=%d, keep %g): KeepBetween left %v, Retain %v", label(), n, keepRate, got.Edges(), want.Edges())
		}
		if !got.IsSparse() {
			for v := 0; v < n; v++ {
				if !slices.Equal(got.InRow(v), want.InRow(v)) {
					t.Fatalf("%s (n=%d): in-row %d out of step with the out rows", label(), n, v)
				}
			}
			continue
		}
		var filtered []uint64
		for _, p := range before {
			if keep(int(p>>32), int(uint32(p))) {
				filtered = append(filtered, p)
			}
		}
		if !slices.Equal(got.csr.pairs, filtered) {
			t.Fatalf("%s (n=%d): log %v after KeepBetween, want the input filtered in order %v", label(), n, got.csr.pairs, filtered)
		}
		if len(filtered) == len(before) && builtAfter != viewsBefore {
			t.Fatalf("%s (n=%d): views %02b after a pass that dropped nothing, %02b before", label(), n, builtAfter, viewsBefore)
		}
		if len(filtered) != len(before) && builtAfter != 0 {
			t.Fatalf("%s (n=%d): views %02b survived a pass that dropped links", label(), n, builtAfter)
		}
		assertViews(t, got, sparseFrom(n, want.Edges()), "%s (n=%d, prebuilt %d, keep %g)", label(), n, prebuilt, keepRate)
	}
}

// TestKeepBetweenAllocatesNothing: a steady prune round — refill, prune,
// build the receiver-major view — allocates nothing, sparse or dense.
func TestKeepBetweenAllocatesNothing(t *testing.T) {
	const n = 2049
	rng := rand.New(rand.NewSource(37))
	log := ascendingLog(rng, n, 8.0/n)
	roles := randomRoles(rng, n, 0.5)
	for name, s := range map[string]*EdgeSet{"sparse": NewEdgeSetSparse(n), "dense": NewEdgeSet(n)} {
		round := func() {
			s.Reset()
			for _, p := range log {
				s.AddUnchecked(p[0], p[1])
			}
			s.KeepBetween(roles)
			if s.IsSparse() {
				s.InCSR()
			}
		}
		round()
		if avg := testing.AllocsPerRun(10, round); avg != 0 {
			t.Errorf("%s: a prune round allocated %g times, want 0", name, avg)
		}
	}
}

// TestKeepBetweenShortRoles: fewer roles than nodes is a bug in the
// caller, reported at once.
func TestKeepBetweenShortRoles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KeepBetween accepted 64 roles over 65 nodes")
		}
	}()
	NewEdgeSetSparse(65).KeepBetween(make([]uint8, 64))
}
