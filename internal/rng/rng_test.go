package rng

import (
	"math"
	"math/rand"
	"testing"
)

// paritySeeds are the seeds every stream-parity check covers: the
// reduction's edges (0, ±1, multiples of 2³¹−1, which math/rand maps to
// its 89482311 stand-in, the stand-in itself, the int64 extremes) plus a
// few hundred drawn from a fixed stream.
func paritySeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64}
	for _, k := range []int64{1, 2, -1, -3, 1 << 20} {
		seeds = append(seeds, k*pmMod, k*pmMod+1, k*pmMod-1)
	}
	gen := rand.New(rand.NewSource(20261015))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand: for every parity seed, Source and
// rand.NewSource render the same stream through every entry point —
// direct Float64/Int63/Uint64, and rand.Rand's Intn, Perm, ExpFloat64
// and Uint64 on top (the last draws once per call only if Source is a
// rand.Source64, as math/rand's is) — for more than three register
// lengths, so both indices wrap several times. Each draw picks its entry
// point from the seed and the draw index, so the interleavings differ
// across seeds.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3*regLen + 50
	for _, seed := range paritySeeds() {
		src := New(seed)
		got := rand.New(src)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			switch op := (uint64(seed) + uint64(i)) % 7; op {
			case 0:
				if g, w := src.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				if g, w := src.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
				}
			case 2:
				if g, w := src.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
				}
			case 3:
				if g, w := got.Intn(1+i), want.Intn(1+i); g != w {
					t.Fatalf("seed %d draw %d: Intn %d, math/rand %d", seed, i, g, w)
				}
			case 4:
				g, w := got.Perm(1+i%17), want.Perm(1+i%17)
				for j := range w {
					if g[j] != w[j] {
						t.Fatalf("seed %d draw %d: Perm %v, math/rand %v", seed, i, g, w)
					}
				}
			case 5:
				if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
				}
			case 6:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: rand.Rand.Uint64 %d, math/rand %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestSeedRewinds: Seed on a used Source — in place, or through the
// rand.Rand wrapping it — restarts exactly the stream a fresh
// rand.NewSource of the new seed starts, whatever state the register and
// its indices were left in.
func TestSeedRewinds(t *testing.T) {
	src := New(5)
	r := rand.New(src)
	for i, seed := range []int64{7, 0, -42, 7, math.MaxInt64} {
		for j := 0; j < 100+i*regLen/2; j++ {
			src.Uint64()
		}
		if i%2 == 0 {
			src.Seed(seed)
		} else {
			r.Seed(seed)
		}
		want := rand.NewSource(seed).(rand.Source64)
		for j := 0; j < 2*regLen; j++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d to %d, draw %d: %d, math/rand %d", i, seed, j, g, w)
			}
		}
	}
}

// TestFloat64RedrawsOne: a draw that rounds to 1.0 is drawn again, as
// math/rand's is. Int63 values within 2⁹ of 2⁶³ round up, so a register
// rigged to emit one must skip it and return the next value.
func TestFloat64RedrawsOne(t *testing.T) {
	src := *New(3)
	next := src // the unrigged stream: its second draw is the expected result
	next.Uint64()
	// The first draw adds register words feed−1 and tap−1 (607−1): rig
	// their sum to 2⁶³−1, which float64 rounds to 2⁶³.
	src.vec[src.feed-1] = int63 - src.vec[regLen-1]
	probe := src
	if f := float64(probe.Int63()) / (1 << 63); f != 1 {
		t.Fatalf("rigged draw is %v, not 1", f)
	}
	viaMathRand := src
	want := rand.New(&viaMathRand).Float64()
	if g, w := src.Float64(), next.Float64(); g != w || g != want {
		t.Fatalf("Float64 after a 1.0 draw = %v, want the next draw %v (math/rand: %v)", g, w, want)
	}
}
