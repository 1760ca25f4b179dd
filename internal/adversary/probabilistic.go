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
	p   float64
	src rng.Source // by value: the adversary is one allocation, Float64 a direct call
}

// NewProbabilistic builds the adversary; p ∈ [0, 1] is the per-link
// per-round presence probability.
func NewProbabilistic(p float64, seed int64) (*Probabilistic, error) {
	if !(p >= 0 && p <= 1) { // rejects NaN too
		return nil, fmt.Errorf("adversary: link probability %g outside [0,1]", p)
	}
	a := &Probabilistic{p: p}
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
// The dense one-uniform-per-pair draw below is a compatibility
// contract, not an oversight: committed specs and pinned seeds
// reproduce these exact graphs, so this stream must stay byte-stable
// (TestProbabilisticDenseStreamPinned asserts it against an
// independent reference). The sparse-native sampler lives in
// SparseProbabilistic (`er2:<p>`) as an explicitly versioned stream.
func (a *Probabilistic) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	dst.Reset()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && a.src.Float64() < a.p {
				dst.Add(u, v)
			}
		}
	}
}

// Reseed implements Reseeder: the next Edges call behaves exactly like
// the first call of a fresh instance built with this seed.
func (a *Probabilistic) Reseed(seed int64) {
	a.src.Seed(seed)
}

// Oblivious implements the state-independence seam: E(t) never reads
// node snapshots.
func (a *Probabilistic) Oblivious() bool { return true }
