package adversary

import (
	"fmt"
	"math/rand"
	"testing"

	"anondyn/internal/network"
	"anondyn/internal/rng"
)

// erReference draws one er round the way EdgesInto did before it drew a
// row word at a time: one Float64 per ordered pair in (u, v) row-major
// order, a link on u ≠ v when it falls below p.
func erReference(src *rng.Source, n int, p float64, dst *network.EdgeSet) {
	dst.Reset()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && src.Float64() < p {
				dst.Add(u, v)
			}
		}
	}
}

// TestProbabilisticWordsMatchPairLoop: the word-at-a-time draw renders
// the pair loop's graphs, and leaves its stream where the pair loop
// does, at sizes on both sides of one and two row words (so the sender
// falls in the first, a middle and the last word), at the extreme and
// the committed probabilities, into dense and sparse sets.
func TestProbabilisticWordsMatchPairLoop(t *testing.T) {
	for _, n := range []int{1, 2, 9, 63, 64, 65, 130} {
		for _, p := range []float64{0, 0.1, 0.3, 0.7, 1} {
			for _, sparse := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/p=%g/sparse=%v", n, p, sparse)
				a := mustAdv(NewProbabilistic(p, int64(n)))
				ref := rng.New(int64(n))
				got, want := network.NewEdgeSet(n), network.NewEdgeSet(n)
				if sparse {
					got = network.NewEdgeSetSparse(n)
				}
				for round := 0; round < 6; round++ {
					a.EdgesInto(round, SizeView(n), got)
					erReference(ref, n, p, want)
					if !got.Equal(want) {
						t.Fatalf("%s round %d: %v, pair loop %v", name, round, got.Edges(), want.Edges())
					}
				}
				if g, w := a.src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("%s: stream after 6 rounds at %d, pair loop at %d", name, g, w)
				}
			}
		}
	}
}

// TestProbabilisticRowWordReplaysReject: no seed search reaches a draw
// Float64 rejects (2⁻⁵⁴ per draw), so rowWord is fed crafted words. A
// block holding 2⁶³−513 (the largest accepted draw, a link at p = 1 and
// not below it) and 2⁶³−512 (the least rejected one, with either top
// bit) must give the word the sequential pair loop gives on the same
// draws followed by the same stream, and leave the stream where that
// loop leaves it.
func TestProbabilisticRowWordReplaysReject(t *testing.T) {
	const accepted, rejected = rng.Float64Reject - 1, rng.Float64Reject
	gen := rand.New(rand.NewSource(35))
	for _, p := range []float64{0.3, 0.999, 1} {
		for _, self := range []int{-1, 0, 5, 63, 64} {
			for trial := 0; trial < 20; trial++ {
				m := 64
				if self >= 0 && self < 64 {
					m = 63
				}
				m -= gen.Intn(4) * (trial % 2) // short last words too
				if self >= m {
					continue
				}
				draws := make([]uint64, m)
				for j := range draws {
					draws[j] = gen.Uint64()
				}
				draws[gen.Intn(m)] = accepted
				draws[gen.Intn(m)] = rejected | uint64(gen.Intn(2))<<63
				if trial%3 == 0 {
					draws[gen.Intn(m)] = rejected + 511
				}
				a := mustAdv(NewProbabilistic(p, int64(trial)))
				ref := rng.New(int64(trial))

				var want uint64
				queue := append([]uint64(nil), draws...)
				width := m
				if self >= 0 && self < 64 {
					width++
				}
				for v := 0; v < width; v++ {
					if v == self {
						continue
					}
					f := 1.0
					for f == 1 {
						var x uint64
						if len(queue) > 0 {
							x, queue = queue[0], queue[1:]
						} else {
							x = ref.Uint64()
						}
						f = float64(x&(1<<63-1)) / (1 << 63)
					}
					if f < p {
						want |= 1 << uint(v)
					}
				}

				if got := a.rowWord(append([]uint64(nil), draws...), self); got != want {
					t.Fatalf("p=%g self=%d trial %d: rowWord %#x, pair loop %#x", p, self, trial, got, want)
				}
				if g, w := a.src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("p=%g self=%d trial %d: stream after the word at %d, pair loop at %d", p, self, trial, g, w)
				}
			}
		}
	}
}

// sinkEdges keeps the benchmarked edge set alive.
var sinkEdges *network.EdgeSet

// BenchmarkProbabilisticEdgesInto prices one steady er round: n(n−1)
// uniforms drawn and compared, and the dense set filled, at the sweep
// size (n = 9, er-crash-sweep's) and at n = 51, across the committed
// densities. ns/op is one round.
func BenchmarkProbabilisticEdgesInto(b *testing.B) {
	for _, n := range []int{9, 51} {
		for _, p := range []float64{0.1, 0.3, 0.7} {
			b.Run(fmt.Sprintf("n=%d/p=%g", n, p), func(b *testing.B) {
				a := mustAdv(NewProbabilistic(p, 1))
				dst := network.NewEdgeSet(n)
				view := SizeView(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					a.EdgesInto(i, view, dst)
				}
				sinkEdges = dst
			})
		}
	}
}
