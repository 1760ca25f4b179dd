package adversary

import (
	"fmt"
	"math"
	"math/rand"

	"anondyn/internal/network"
	"anondyn/internal/rng"
)

// sparseBernoulliInto turns on each ordered pair (u, v), u ≠ v, of an
// n-node graph independently with probability p, visiting ONLY the
// pairs that come up present: instead of one uniform per pair, it jumps
// from hit to hit over the flattened n² pair grid with geometric skips
// of expected length 1/p (the classical binomial-jump construction).
// A draw therefore costs O(pn²) RNG calls instead of n(n−1), which is
// what makes million-node sparse rounds affordable. Existing links in
// dst are kept (Add is idempotent), so callers layering extra links
// over a schedule can reuse it directly.
//
// The skip is drawn as ⌊E/λ⌋ with E ~ Exp(1) and λ = −log1p(−p): for
// E exponential, ⌊E/λ⌋ is exactly Geometric(p) — the same distribution
// as the textbook ⌊log(1−U)/log(1−p)⌋ inversion, but ExpFloat64's
// ziggurat needs no log call on the hot path, which matters when the
// sampler runs once per edge per round.
//
// Diagonal grid cells are sampled and dropped rather than excluded from
// the index space — each off-diagonal pair stays an independent
// Bernoulli(p) draw, and the mapping from grid index to (u, v) stays a
// division instead of a branchy triangular unrounding.
func sparseBernoulliInto(dst *network.EdgeSet, n int, p float64, rng *rand.Rand) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		dst.FillComplete()
		return
	}
	invRate := -1 / math.Log1p(-p) // 1/λ > 0
	// rem counts the grid cells strictly after the current position;
	// comparing the skip against it in float64 sidesteps int overflow on
	// astronomically long skips (counts stay exact: n² < 2⁵³). (u, v) is
	// tracked incrementally instead of divided out of a flat index — a
	// skip shorter than n (the overwhelming case at p ≈ c/n) wraps the
	// column at most once, so the hot path is add-and-compare with no
	// integer division.
	rem := float64(n) * float64(n)
	u, v := 0, -1
	for {
		f := math.Floor(rng.ExpFloat64() * invRate)
		if f >= rem {
			return
		}
		k := int(f) + 1
		rem -= float64(k)
		v += k
		if v >= n {
			if v < 2*n {
				v -= n
				u++
			} else {
				u += v / n
				v %= n
			}
		}
		if u != v {
			dst.AddUnchecked(u, v)
		}
	}
}

// SparseProbabilistic is the sparse-native Erdős–Rényi adversary: the
// same graph distribution as Probabilistic — every directed link
// present independently with probability p, freshly drawn per round —
// rendered with geometric-skip sampling, so a round costs O(pn² + n/64)
// instead of n(n−1) uniform draws. At p = 8/n that turns the generation
// cost from quadratic into linear in n, which is what lets the bench
// density axis extend to n = 1025/4097.
//
// The RNG stream is an explicitly versioned contract, distinct from the
// legacy adversary's: for a fixed (p, seed) and call sequence,
// SparseProbabilistic always renders the same trace — across Reseed,
// across processes, and across future releases — but it is NOT the
// trace Probabilistic renders from that seed (the two consume different
// uniforms). The registry exposes it as `er2:<p>`; the legacy dense
// `er:<p>` stream stays byte-compatible so committed specs and pinned
// seeds keep reproducing.
type SparseProbabilistic struct {
	p   float64
	rng *rand.Rand
}

// NewSparseProbabilistic builds the adversary; p ∈ [0, 1] is the
// per-link per-round presence probability.
func NewSparseProbabilistic(p float64, seed int64) (*SparseProbabilistic, error) {
	if !(p >= 0 && p <= 1) { // rejects NaN too
		return nil, fmt.Errorf("adversary: link probability %g outside [0,1]", p)
	}
	return &SparseProbabilistic{p: p, rng: rand.New(rng.New(seed))}, nil
}

// Name implements Adversary. %g keeps sparse probabilities
// distinguishable (p=8/4097 must not collapse onto p=8/1025).
func (a *SparseProbabilistic) Name() string { return fmt.Sprintf("er2(p=%g)", a.p) }

// Edges implements Adversary. The RNG stream advances with every call;
// replaying requires a fresh instance with the same seed, or a Reseed.
func (a *SparseProbabilistic) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	a.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace; it consumes the RNG stream exactly as
// Edges does, so both paths draw identical graphs from the same seed.
func (a *SparseProbabilistic) EdgesInto(t int, view View, dst *network.EdgeSet) {
	dst.Reset()
	sparseBernoulliInto(dst, view.N(), a.p, a.rng)
}

// Reseed implements Reseeder: the next Edges call behaves exactly like
// the first call of a fresh instance built with this seed.
func (a *SparseProbabilistic) Reseed(seed int64) {
	a.rng.Seed(seed)
}

// Oblivious implements the state-independence seam: E(t) never reads
// node snapshots.
func (a *SparseProbabilistic) Oblivious() bool { return true }
