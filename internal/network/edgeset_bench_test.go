package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The engine's hot loop calls InDegree/OutDegree per node per round and
// the dynaDegree checker scans incoming links over thousands of rounds,
// so the column-scan rewrite of InNeighbors/InDegree is benchmarked
// here against the workload sizes the experiments use.

func benchSizes() []int { return []int{9, 51, 129} }

func BenchmarkInDegree(b *testing.B) {
	for _, n := range benchSizes() {
		e := randomEdgeSet(n, 0.5, rand.New(rand.NewSource(7)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					sum += e.InDegree(v)
				}
			}
			if sum < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

func BenchmarkInNeighbors(b *testing.B) {
	for _, n := range benchSizes() {
		e := randomEdgeSet(n, 0.5, rand.New(rand.NewSource(7)))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v < n; v++ {
					if e.InNeighbors(v) == nil && n > 1 {
						b.Fatal("empty neighborhood in a dense graph")
					}
				}
			}
		})
	}
}

func BenchmarkFillComplete(b *testing.B) {
	for _, n := range benchSizes() {
		e := NewEdgeSet(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.FillComplete()
			}
		})
	}
}

func BenchmarkEdgeSetReset(b *testing.B) {
	e := Complete(129)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
	}
}

// BenchmarkCSRBuild measures the lazy view builds on their own, at the
// repo benchmark's sparse size and on its two graph families: the log
// is filled once and only the built flags are cleared per iteration, so
// an op is exactly one compaction of the receiver-major view ("in":
// what a fault-free round pays) or of both ("both": what it paid when
// the views were built together). er2 logs arrive sender-major in
// lexicographic order, rotating ones receiver-major with wrap-around
// rows.
func BenchmarkCSRBuild(b *testing.B) {
	const n = 16385
	fills := []struct {
		name string
		fill func(*EdgeSet)
	}{
		{"er2", func(s *EdgeSet) {
			// ~8 links per sender at uniform gaps: p = 8/n without the sampler
			// (internal/adversary imports this package).
			rng := rand.New(rand.NewSource(1))
			for u := 0; u < n; u++ {
				for v := rng.Intn(n / 4); v < n; v += 1 + rng.Intn(n/4) {
					if u != v {
						s.AddUnchecked(u, v)
					}
				}
			}
		}},
		{"rotating", func(s *EdgeSet) {
			// InRegularInto writes the receiver-major view itself; time the
			// compaction of the log derived from it, which a mutation of
			// that set (KeepBetween's aside) goes through.
			InRegularInto(s, 4, 12345)
			s.csr.syncLog()
		}},
	}
	for _, views := range []string{"in", "both"} {
		for _, f := range fills {
			b.Run(fmt.Sprintf("%s/%s/n=%d", views, f.name, n), func(b *testing.B) {
				s := NewEdgeSetSparse(n)
				f.fill(s)
				edges := s.Len()
				s.OutCSR() // size both lists before timing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.csr.built = 0
					s.InCSR()
					if views == "both" {
						s.OutCSR()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
			})
		}
	}
}

// BenchmarkKeepBetween prices the engine's crash prune on its own: an
// er2-shaped log at the repo benchmark's sparse size, refilled from a
// copy each op, pruned to the links among a quarter of the nodes (every
// fourth node alive, as after the storm workload's last wave). The
// refill is part of the op; ns/edge is per link of the unpruned log.
func BenchmarkKeepBetween(b *testing.B) {
	const n = 16385
	s := NewEdgeSetSparse(n)
	rng := rand.New(rand.NewSource(1))
	for u := 0; u < n; u++ {
		for v := rng.Intn(n / 4); v < n; v += 1 + rng.Intn(n/4) {
			if u != v {
				s.AddUnchecked(u, v)
			}
		}
	}
	log := slices.Clone(s.csr.pairs)
	roles := make([]uint8, n)
	for i := 0; i < n; i += 4 {
		roles[i] = Sends | Receives
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.csr.pairs = append(s.csr.pairs[:0], log...)
		s.KeepBetween(roles)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/edge")
}

// BenchmarkInRegularInto times the rotating adversary's generator on its
// own, at the repo benchmark's sparse size: one op overwrites a recycled
// CSR set with an in-regular graph, the link log BenchmarkCSRBuild fills
// outside its timer. The offset steps as the rotating adversary's does.
func BenchmarkInRegularInto(b *testing.B) {
	const n, d = 16385, 4
	b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
		s := NewEdgeSetSparse(n)
		// Size the log before timing: the second Reset regrows it to its
		// headroom.
		InRegularInto(s, d, 0)
		InRegularInto(s, d, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			InRegularInto(s, d, (i*d)%n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*d), "ns/edge")
	})
}
