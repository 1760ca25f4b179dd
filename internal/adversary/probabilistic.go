package adversary

import (
	"fmt"

	"anondyn/internal/network"
	"anondyn/internal/rng"
)

// Probabilistic is the §VII open-problem adversary: E(t) is an
// Erdős–Rényi directed graph where each of the n(n−1) links is present
// independently with probability p, freshly drawn every round. It makes
// no dynaDegree guarantee at any (T, D) — only a high-probability one —
// which is exactly why the paper asks what the optimal EXPECTED round
// complexity is (experiment E10 measures it for DAC).
type Probabilistic struct {
	p     float64
	below uint64     // rng.Float64Below(p): a draw is a link when its low 63 bits are below it
	src   rng.Source // by value: the adversary is one allocation, Fill a direct call
}

// NewProbabilistic builds the adversary; p ∈ [0, 1] is the per-link
// per-round presence probability.
func NewProbabilistic(p float64, seed int64) (*Probabilistic, error) {
	if !(p >= 0 && p <= 1) { // rejects NaN too
		return nil, fmt.Errorf("adversary: link probability %g outside [0,1]", p)
	}
	a := &Probabilistic{p: p, below: rng.Float64Below(p)}
	a.src.Seed(seed)
	return a, nil
}

// Name implements Adversary. %g keeps sparse probabilities
// distinguishable in reports and spec round-trips (%.2f collapsed
// p=8/4097 and p=8/1025 onto the same "er(p=0.00)").
func (a *Probabilistic) Name() string { return fmt.Sprintf("er(p=%g)", a.p) }

// Edges implements Adversary. The RNG stream advances with every call;
// replaying requires a fresh instance with the same seed, or a Reseed.
func (a *Probabilistic) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	a.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace; it consumes the RNG stream exactly as
// Edges does, so both paths draw identical graphs from the same seed.
//
// The dense one-uniform-per-pair draw is a compatibility contract, not
// an oversight: committed specs and pinned seeds reproduce these exact
// graphs, so this stream must stay byte-stable
// (TestProbabilisticDenseStreamPinned asserts it against an
// independent reference). The sparse-native sampler lives in
// SparseProbabilistic (`er2:<p>`) as an explicitly versioned stream.
//
// The draws are taken a row word at a time: the up to 64 uniforms of
// one sender's word in one Fill, each compared as an integer against
// the threshold, and the word stored whole (rowWord).
func (a *Probabilistic) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	dst.Reset()
	var block [64]uint64
	for u := 0; u < n; u++ {
		for lo := 0; lo < n; lo += 64 {
			self := u - lo // the sender's bit in this word, or outside [0, 64)
			m := min(n-lo, 64)
			if uint(self) < uint(m) {
				m--
			}
			draws := block[:m]
			a.src.Fill(draws)
			dst.AddOutWord(u, lo/64, a.rowWord(draws, self))
		}
	}
}

// rowWord returns one word of a sender's out-row from its draws, in
// receiver order with the sender itself skipped: bit j of the packed
// word is draws[j] < below, branch-free, and the sender's bit self (when
// it lies in this word) is then opened as a zero. A draw Float64 would
// reject (low bits ≥ rng.Float64Reject: it rounds to 1 and is drawn
// again) shifts every later pair by one draw, so that word is replayed
// instead; it happens with probability 2⁻⁵⁴ per draw.
func (a *Probabilistic) rowWord(draws []uint64, self int) uint64 {
	var bits, reject uint64
	below := a.below
	for j, x := range draws {
		y := x & (1<<63 - 1)
		bits |= (y - below) >> 63 << (uint(j) & 63)
		reject |= y + (1<<63 - rng.Float64Reject)
	}
	if reject>>63 != 0 {
		return a.replay(draws, self)
	}
	if uint(self) < 64 {
		low := bits & (1<<uint(self) - 1)
		bits = low | (bits^low)<<1
	}
	return bits
}

// replay is the sequential loop rowWord stands for: one Float64 per
// receiver of the word but the sender, each compared against p, reading
// the word's draws first and the stream after them.
func (a *Probabilistic) replay(draws []uint64, self int) uint64 {
	width := len(draws)
	if uint(self) < 64 {
		width++
	}
	var bits uint64
	for v := 0; v < width; v++ {
		if v == self {
			continue
		}
		f := 1.0
		for f == 1 {
			var x uint64
			if len(draws) > 0 {
				x, draws = draws[0], draws[1:]
			} else {
				x = a.src.Uint64()
			}
			f = float64(x&(1<<63-1)) / (1 << 63)
		}
		if f < a.p {
			bits |= 1 << uint(v)
		}
	}
	return bits
}

// Reseed implements Reseeder: the next Edges call behaves exactly like
// the first call of a fresh instance built with this seed.
func (a *Probabilistic) Reseed(seed int64) {
	a.src.Seed(seed)
}

// Oblivious implements the state-independence seam: E(t) never reads
// node snapshots.
func (a *Probabilistic) Oblivious() bool { return true }
