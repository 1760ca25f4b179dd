package rng

import (
	"math/rand"
	"testing"
)

// sinkF and sinkS keep the benchmarked results alive.
var (
	sinkF float64
	sinkS rand.Source
)

// BenchmarkSource prices the two operations a Monte-Carlo run pays per
// seeded stream: Seed (once per run per stream) and Float64 (once per
// ordered pair per round under the dense er adversary). The /mathrand
// rows are the same operations on rand.NewSource, the stream Source
// reproduces. The loops run to b.N rather than b.Loop, whose per-call
// cost would be a third of a Float64.
func BenchmarkSource(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		var src Source
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			src.Seed(int64(i))
		}
		sinkF = src.Float64()
	})
	b.Run("seed/mathrand", func(b *testing.B) {
		src := rand.NewSource(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			src.Seed(int64(i))
		}
		sinkS = src
	})
	b.Run("float64", func(b *testing.B) {
		src := New(1)
		b.ReportAllocs()
		b.ResetTimer()
		var f float64
		for range b.N {
			f = src.Float64()
		}
		sinkF = f
	})
	b.Run("float64/mathrand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		var f float64
		for range b.N {
			f = r.Float64()
		}
		sinkF = f
	})
}
