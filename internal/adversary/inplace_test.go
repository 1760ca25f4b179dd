package adversary

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/network"
)

// driftView hands every node a distinct, round-varying value so adaptive
// adversaries exercise their sorting paths.
type driftView struct {
	n     int
	round int
}

func (v *driftView) N() int { return v.n }
func (v *driftView) Snapshot(i int) core.Snapshot {
	return core.Snapshot{
		Phase: v.round,
		Value: float64((i*7+v.round*3)%v.n) / float64(v.n),
	}
}

func mustAdv[A Adversary](a A, err error) A {
	if err != nil {
		panic(err)
	}
	return a
}

// inPlaceCases builds one instance per adversary for the Edges path and
// a twin for the EdgesInto path (randomized adversaries consume their
// RNG per call, so comparing paths needs independent equal-seed twins).
func inPlaceCases(t *testing.T) map[string][2]Adversary {
	t.Helper()
	pair := func(mk func() Adversary) [2]Adversary { return [2]Adversary{mk(), mk()} }
	return map[string][2]Adversary{
		"complete":     pair(func() Adversary { return NewComplete() }),
		"rotating":     pair(func() Adversary { return mustAdv(NewRotating(3)) }),
		"randomDegree": pair(func() Adversary { return mustAdv(NewRandomDegree(3, 2, 0.2, 42)) }),
		"er":           pair(func() Adversary { return mustAdv(NewProbabilistic(0.4, 7)) }),
		"er2":          pair(func() Adversary { return mustAdv(NewSparseProbabilistic(0.4, 7)) }),
		"clustered":    pair(func() Adversary { return mustAdv(NewClustered(4)) }),
		"starve":       pair(func() Adversary { return mustAdv(NewStarve(3)) }),
		"isolate":      pair(func() Adversary { return mustAdv(NewIsolate(4)) }),
		"chaseMin":     pair(func() Adversary { return NewChaseMin() }),
	}
}

// caseN returns the network size a named case runs at.
func caseN(string) int { return 9 }

// TestFixedGraphAdversariesSkipInPlace: adversaries that return prebuilt
// sets by pointer must NOT implement InPlace — the fallback path is
// already allocation-free, and a scratch copy per round would be a
// strict regression. This pins the intent so a future blanket
// implementation re-introducing the copy fails loudly.
func TestFixedGraphAdversariesSkipInPlace(t *testing.T) {
	fixed := map[string]Adversary{
		"static":   NewStatic("ring", network.Ring(9)),
		"periodic": NewFig1(),
		"halves":   mustAdv(NewHalves(9)),
	}
	view := SizeView(9)
	for name, a := range fixed {
		if _, ok := a.(InPlace); ok {
			t.Errorf("%s implements InPlace; its shared-pointer Edges path is cheaper", name)
		}
		if name == "periodic" {
			continue // Fig1 is 3-node; pointer stability checked via the others
		}
		if a.Edges(0, view) != a.Edges(2, view) {
			// Static and SplitGroups must hand back the same set every
			// round — that stability is what justifies skipping InPlace.
			t.Errorf("%s returned distinct sets across rounds", name)
		}
	}
}

// TestEdgesIntoMatchesEdges: for every adversary in the package, the
// in-place fast path must render exactly the graphs the allocating path
// renders — round by round, including stale-scratch overwrites.
func TestEdgesIntoMatchesEdges(t *testing.T) {
	const rounds = 24
	for name, pair := range inPlaceCases(t) {
		t.Run(name, func(t *testing.T) {
			n := caseN(name)
			alloc, inPlace := pair[0], pair[1]
			ip, ok := inPlace.(InPlace)
			if !ok {
				t.Fatalf("%s does not implement InPlace", name)
			}
			dst := network.Complete(n) // non-empty: EdgesInto must overwrite, not union
			view := &driftView{n: n}
			for round := 0; round < rounds; round++ {
				view.round = round
				want := alloc.Edges(round, view)
				ip.EdgesInto(round, view, dst)
				if !dst.Equal(want) {
					t.Fatalf("round %d: EdgesInto %v, Edges %v", round, dst.Edges(), want.Edges())
				}
			}
		})
	}
}

// TestEdgesIntoIgnoresPrunedScratch is the audit the engine's crash
// prune relies on: the engine edits its scratch set after the adversary
// wrote it (network.EdgeSet.KeepBetween drops the links of dead nodes)
// and hands the edited set back the next round, so every in-place
// adversary must overwrite dst without reading what it holds. Each
// round's scratch is pruned to a random node subset before the next
// EdgesInto, on a CSR and a dense scratch, and every rendered graph
// must still equal the allocating path's.
func TestEdgesIntoIgnoresPrunedScratch(t *testing.T) {
	const rounds = 24
	for _, sparse := range []bool{true, false} {
		for name, pair := range inPlaceCases(t) {
			t.Run(fmt.Sprintf("%s/sparse=%v", name, sparse), func(t *testing.T) {
				n := caseN(name)
				alloc, ip := pair[0], pair[1].(InPlace)
				dst := network.NewEdgeSet(n)
				if sparse {
					dst = network.NewEdgeSetSparse(n)
				}
				view := &driftView{n: n}
				roles := make([]uint8, n)
				for round := 0; round < rounds; round++ {
					view.round = round
					want := alloc.Edges(round, view)
					ip.EdgesInto(round, view, dst)
					if !dst.Equal(want) {
						t.Fatalf("round %d: EdgesInto %v over a pruned scratch, Edges %v", round, dst.Edges(), want.Edges())
					}
					for i := range roles { // a different role for each node each round
						roles[i] = uint8(uint64(0x9e3779b97f4a7c15)>>((i+round)%61)) & (network.Sends | network.Receives)
					}
					dst.KeepBetween(roles)
				}
			})
		}
	}
}

// TestEdgesIntoSteadyStateAllocs: once warm, the fast path of the
// engine-facing adversaries must not allocate per round.
func TestEdgesIntoSteadyStateAllocs(t *testing.T) {
	for name, pair := range inPlaceCases(t) {
		if name == "randomDegree" {
			// Rebuilds its guarantee schedule at block boundaries (rand.Perm
			// allocates); allocation-free only within a block.
			continue
		}
		t.Run(name, func(t *testing.T) {
			n := caseN(name)
			ip := pair[1].(InPlace)
			dst := network.NewEdgeSet(n)
			view := &driftView{n: n}
			round := 0
			for ; round < 8; round++ { // warm the scratch
				view.round = round
				ip.EdgesInto(round, view, dst)
			}
			avg := testing.AllocsPerRun(50, func() {
				view.round = round
				ip.EdgesInto(round, view, dst)
				round++
			})
			if avg != 0 {
				t.Errorf("%s: %g allocs per EdgesInto, want 0", name, avg)
			}
		})
	}
}

// TestReseedMatchesFreshInstance: a reseeded randomized adversary must
// replay the stream of a fresh instance with the same seed.
func TestReseedMatchesFreshInstance(t *testing.T) {
	const n, rounds = 9, 12
	cases := map[string]struct {
		fresh func(seed int64) Adversary
	}{
		"er":           {func(seed int64) Adversary { return mustAdv(NewProbabilistic(0.4, seed)) }},
		"er2":          {func(seed int64) Adversary { return mustAdv(NewSparseProbabilistic(0.4, seed)) }},
		"randomDegree": {func(seed int64) Adversary { return mustAdv(NewRandomDegree(3, 2, 0.2, seed)) }},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			recycled := tc.fresh(1)
			view := &driftView{n: n}
			for _, seed := range []int64{5, 9} {
				recycled.(Reseeder).Reseed(seed)
				fresh := tc.fresh(seed)
				for round := 0; round < rounds; round++ {
					view.round = round
					a := recycled.Edges(round, view)
					b := fresh.Edges(round, view)
					if !a.Equal(b) {
						t.Fatalf("seed %d round %d: reseeded %v, fresh %v", seed, round, a.Edges(), b.Edges())
					}
				}
			}
		})
	}
}

// BenchmarkEdgesInto quantifies the fast path against the allocating
// path for the two adversaries the engine's zero-alloc budget targets.
func BenchmarkEdgesInto(b *testing.B) {
	const n = 25
	view := &driftView{n: n}
	for _, bc := range []struct {
		name string
		mk   func() Adversary
	}{
		{"complete", func() Adversary { return NewComplete() }},
		{"er", func() Adversary {
			a, err := NewProbabilistic(0.5, 1)
			if err != nil {
				b.Fatal(err)
			}
			return a
		}},
	} {
		b.Run(bc.name+"/edges", func(b *testing.B) {
			a := bc.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Edges(i, view)
			}
		})
		b.Run(bc.name+"/into", func(b *testing.B) {
			a := bc.mk().(InPlace)
			dst := network.NewEdgeSet(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.EdgesInto(i, view, dst)
			}
		})
	}
}
