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

// TestSourceIntnMatchesMathRand: Source.Intn draws what rand.Rand.Intn
// draws on the same stream, for a million draws per seed. The bounds
// cover n = 1, powers of two (math/rand masks there), small odd n,
// 2³⁰+1 (almost half of all draws rejected), 2³¹−1 (the largest n on
// this path) and n drawn log-uniformly up to 2³¹−1. Float64 and
// ExpFloat64 draws, the latter through a rand.Rand over the same
// Source, are interleaved so the indices sit anywhere in the register
// when Intn starts, and so a draw Intn took or skipped wrongly shows in
// every later one.
func TestSourceIntnMatchesMathRand(t *testing.T) {
	fixed := []int{1, 2, 3, 5, 7, 64, 1000, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	gen := rand.New(rand.NewSource(31))
	for _, seed := range []int64{1, 0, -7, 20261017} {
		src := New(seed)
		r := rand.New(src)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			var n int
			switch i % 4 {
			case 0:
				n = fixed[(i/4)%len(fixed)]
			case 1:
				n = 1 + int(gen.Int63n(1<<(1+gen.Intn(31))-1))
			case 2:
				if g, w := src.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
				continue
			default:
				if i%8 == 3 {
					if g, w := r.ExpFloat64(), want.ExpFloat64(); g != w {
						t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
					}
					continue
				}
				n = 1 + i%97
			}
			if g, w := src.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

// TestSourceIntnPanicsOutOfRange: n ≤ 0, and n ≥ 2³¹ where int holds
// it, panic rather than leave math/rand's stream.
func TestSourceIntnPanicsOutOfRange(t *testing.T) {
	bad := []int{0, -1}
	if big := int64(1) << 31; int64(int(big)) == big {
		bad = append(bad, int(big))
	}
	src := New(1)
	for _, n := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			src.Intn(n)
		}()
	}
}

// TestFillMatchesUint64: Fill advances the stream exactly as len(dst)
// Uint64 calls do. Block lengths run from 0 to past two register
// lengths, so blocks start and end on either side of both wrap points,
// and Float64, Intn and rand.Rand.ExpFloat64 calls on the same Source
// sit between the blocks, so the indices are anywhere when one starts.
func TestFillMatchesUint64(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, 20261018} {
		src := New(seed)
		r := rand.New(src)
		want := rand.New(rand.NewSource(seed))
		var buf [2*regLen + 3]uint64
		for i := 0; i < 400; i++ {
			m := (i * 37) % len(buf)
			src.Fill(buf[:m])
			for j, g := range buf[:m] {
				if w := want.Uint64(); g != w {
					t.Fatalf("seed %d block %d (len %d) value %d: %d, math/rand %d", seed, i, m, j, g, w)
				}
			}
			switch i % 3 {
			case 0:
				if g, w := src.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d after block %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				if g, w := src.Intn(1+i), want.Intn(1+i); g != w {
					t.Fatalf("seed %d after block %d: Intn %d, math/rand %d", seed, i, g, w)
				}
			default:
				if g, w := r.ExpFloat64(), want.ExpFloat64(); g != w {
					t.Fatalf("seed %d after block %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestFloat64sMatchesSeed: Float64s(seed, dst) is the first len(dst)
// Float64 values of a seeded Source, for every parity seed (negative, 0,
// multiples of 2³¹−1 that take the stand-in, random) and every length
// from 0 to 700, across draw 273 (the tap starts reading drawn values)
// and draw 607 (the feed does too).
func TestFloat64sMatchesSeed(t *testing.T) {
	seeds := paritySeeds()
	for i, seed := range seeds {
		var src Source
		src.Seed(seed)
		want := make([]float64, 700)
		for j := range want {
			want[j] = src.Float64()
		}
		lengths := []int{0, 1, 9, 272, 273, 274, 606, 607, 608, 700}
		if i < 8 {
			lengths = lengths[:0]
			for n := 0; n <= 700; n++ {
				lengths = append(lengths, n)
			}
		}
		for _, n := range lengths {
			got := make([]float64, n)
			Float64s(seed, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d len %d value %d: %v, Seed+Float64 %v", seed, n, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFloat64Below: for every p the er adversary is committed or
// tested at, and the edges of [0, 1], y < Float64Below(p) holds exactly
// when Float64 of a draw with low bits y is below p — at the threshold
// and its neighbours, at the reject boundary and over a random stream.
func TestFloat64Below(t *testing.T) {
	ps := []float64{0, 1, math.SmallestNonzeroFloat64, 0.1, 0.3, 0.7,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.5}
	gen := New(35)
	for _, p := range ps {
		below := Float64Below(p)
		check := func(y uint64) {
			if y >= Float64Reject {
				return
			}
			if got, want := y < below, float64(y)/(1<<63) < p; got != want {
				t.Fatalf("p=%v y=%d: threshold %d says %v, Float64 compare %v", p, y, below, got, want)
			}
		}
		for d := uint64(0); d < 4; d++ {
			check(below + d)
			check(below - d) // wraps past 0 to a rejected value, which check skips
		}
		for y := uint64(Float64Reject - 1030); y < Float64Reject; y++ {
			check(y)
		}
		for i := 0; i < 200000; i++ {
			check(gen.Uint64() & int63)
		}
	}
}
