// Package rng is the generator behind every seeded stream in this
// module. Source reproduces math/rand's rand.NewSource(seed) value for
// value — the same 607-word additive lagged-Fibonacci register with tap
// 273, the same Seed, Int63 and Uint64 — so every committed spec, golden
// file and pinned seed keeps rendering the bytes it always did. What
// differs is the cost of Seed: math/rand walks one 1 841-step Park–Miller
// chain through Schrage's two divisions per step, while Source computes
// the same states on six independent chains with Mersenne reduction.
// Monte-Carlo sweeps seed a fresh stream per run, so that cost sits on
// every run of a sweep.
//
// Wrap a Source as rand.New(rng.New(seed)) where *rand.Rand methods
// (Perm, ExpFloat64) are needed; Float64 and Intn are also provided
// directly, with math/rand's exact algorithms, for the per-pair and
// per-receiver loops.
package rng

import "math/rand"

const (
	regLen  = 607 // register length
	regTap  = 273 // lag of the second tap
	int63   = 1<<63 - 1
	pmMod   = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	pmMul   = 48271     // Park–Miller multiplier
	pmZero  = 89482311  // math/rand's stand-in for a seed ≡ 0 (mod pmMod)
	pmSkip  = 21        // register word 0 starts at Park–Miller state x_21
	pmLanes = 6         // independent chains: two register words per step
)

var (
	// cooked is math/rand's unexported rngCooked table: register word i
	// after Seed is its Park–Miller part XOR cooked[i].
	cooked [regLen]uint64
	// laneStart[j] = pmMul^(pmSkip+j) and laneStep = pmMul^pmLanes, mod pmMod.
	laneStart [pmLanes]uint64
	laneStep  uint64
)

func init() {
	p := uint64(1)
	for k := 1; k < pmSkip+pmLanes; k++ {
		p = mulMod(p, pmMul)
		if k == pmLanes {
			laneStep = p
		}
		if k >= pmSkip {
			laneStart[k-pmSkip] = p
		}
	}
	cooked = deriveCooked()
}

// deriveCooked recovers math/rand's cooked table from its own output for
// seed 1, so no data is copied. Call k (1-based) of Uint64 adds register
// words (334−k) mod 607 — the feed, which it then overwrites — and
// 607−k, the tap. Calls 274…607 read an untouched feed word plus the tap
// that call k−273 overwrote, which solves words 60…0 and 606…334; calls
// 1…273 read untouched words only, and with the tap half known give
// words 333…61. Each cooked entry is that word XOR its Park–Miller part.
func deriveCooked() [regLen]uint64 {
	var bare Source
	bare.Seed(1) // cooked is still zero here: only the Park–Miller parts
	ref := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]uint64 // out[k] is call k's output
	for k := 1; k <= regLen; k++ {
		out[k] = ref.Uint64()
	}
	var word [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		word[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		word[regLen-regTap-k] = out[k] - word[regLen-k]
	}
	var c [regLen]uint64
	for i := range c {
		c[i] = word[i] ^ bare.vec[i]
	}
	return c
}

// mulMod returns x·y mod pmMod for x, y < pmMod: the product fits in 62
// bits, 2³¹ ≡ 1 folds the high half onto the low one, and the sum is
// below 2·pmMod, so one conditional subtract finishes.
func mulMod(x, y uint64) uint64 {
	t := x * y
	r := t&pmMod + t>>31
	if r >= pmMod {
		r -= pmMod
	}
	return r
}

// Source is a seeded stream identical to rand.NewSource's. It implements
// rand.Source64. The zero value is not seeded; use New or Seed.
type Source struct {
	tap, feed int
	vec       [regLen]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the stream to the one rand.NewSource(seed) starts. Word i
// of the register mixes Park–Miller states x_{21+3i}, x_{22+3i} and
// x_{23+3i} (x_k = 48271^k·seed mod 2³¹−1); lane j of six holds
// x_{21+j+6s} at step s, so one step fills two words.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = regLen - regTap
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = pmZero
	}
	x := uint64(seed)
	x0, x1, x2 := mulMod(x, laneStart[0]), mulMod(x, laneStart[1]), mulMod(x, laneStart[2])
	x3, x4, x5 := mulMod(x, laneStart[3]), mulMod(x, laneStart[4]), mulMod(x, laneStart[5])
	vec, ck := s.vec[:], cooked[:]
	for i := 0; i+1 < regLen; i += 2 {
		vec[i] = x0<<40 ^ x1<<20 ^ x2 ^ ck[i]
		vec[i+1] = x3<<40 ^ x4<<20 ^ x5 ^ ck[i+1]
		x0, x1, x2 = mulMod(x0, laneStep), mulMod(x1, laneStep), mulMod(x2, laneStep)
		x3, x4, x5 = mulMod(x3, laneStep), mulMod(x4, laneStep), mulMod(x5, laneStep)
	}
	vec[regLen-1] = x0<<40 ^ x1<<20 ^ x2 ^ ck[regLen-1]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63) }

// Float64 is rand.New(s).Float64 without the interface call: Int63/2⁶³,
// drawn again in the rare case it rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.New(s).Intn(n) for 0 < n < 2³¹, draw for draw, without
// the interface call. math/rand draws v = Int63>>32 and rejects it when
// v > 2³¹−1 − 2³¹ mod n, masking instead of dividing when n is a power
// of two. That rejection is v − v mod n + n > 2³¹ (the multiple of n at
// or below v is the last whole one below 2³¹), and for a power of two v
// mod n is the mask, so one division per draw serves every n. It panics
// for n outside (0, 2³¹), where math/rand's Intn takes another path.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: Intn argument out of range")
	}
	m := uint32(n)
	for {
		v := uint32(s.Int63() >> 32)
		r := v % m
		if uint64(v-r)+uint64(m) <= 1<<31 {
			return int(r)
		}
	}
}
