package adversary

import (
	"fmt"
	"math/rand"

	"anondyn/internal/network"
	"anondyn/internal/rng"
)

// Oblivious adversaries: E(t) depends only on the round number (and a
// seed), never on node states.

// Complete delivers every link in every round — the benign extreme,
// (1, n−1)-dynaDegree.
type Complete struct{}

// NewComplete returns the complete-graph adversary.
func NewComplete() Complete { return Complete{} }

// Name implements Adversary.
func (Complete) Name() string { return "complete" }

// Edges implements Adversary.
func (Complete) Edges(t int, view View) *network.EdgeSet {
	return network.Complete(view.N())
}

// EdgesInto implements InPlace: a word-wise fill of the scratch set.
func (Complete) EdgesInto(t int, view View, dst *network.EdgeSet) {
	dst.FillComplete()
}

// Oblivious implements the state-independence seam.
func (Complete) Oblivious() bool { return true }

// Static replays one fixed graph every round.
type Static struct {
	g    *network.EdgeSet
	name string
}

// NewStatic wraps a fixed graph as an adversary.
func NewStatic(name string, g *network.EdgeSet) *Static {
	return &Static{g: g, name: name}
}

// Name implements Adversary.
func (s *Static) Name() string { return "static:" + s.name }

// Edges implements Adversary. Static deliberately does NOT implement
// InPlace: it returns its prebuilt set by pointer, which is already
// allocation-free and cheaper than any per-round copy into an
// engine-owned scratch set (the engine never mutates returned sets).
func (s *Static) Edges(t int, view View) *network.EdgeSet { return s.g }

// Oblivious implements the state-independence seam.
func (s *Static) Oblivious() bool { return true }

// Periodic cycles through a fixed schedule of edge sets:
// E(t) = sets[t mod len(sets)].
type Periodic struct {
	sets []*network.EdgeSet
	name string
}

// NewPeriodic builds a periodic adversary from a non-empty schedule.
func NewPeriodic(name string, sets ...*network.EdgeSet) (*Periodic, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("adversary: periodic schedule must be non-empty")
	}
	return &Periodic{sets: sets, name: name}, nil
}

// Name implements Adversary.
func (p *Periodic) Name() string { return "periodic:" + p.name }

// Edges implements Adversary. Like Static, Periodic returns prebuilt
// sets by pointer and skips InPlace: the fallback path is already
// allocation-free and copy-free.
func (p *Periodic) Edges(t int, view View) *network.EdgeSet {
	return p.sets[t%len(p.sets)]
}

// Oblivious implements the state-independence seam.
func (p *Periodic) Oblivious() bool { return true }

// NewFig1 reproduces the paper's Figure 1 on 3 nodes: odd rounds have no
// links at all, even rounds have {(0,1),(1,0),(1,2),(2,1)} (paper's
// 1-based {(1,2),(2,1),(2,3),(3,2)}). The resulting dynamic graph
// satisfies (2,1)-dynaDegree but not (1,1)-dynaDegree — pinned by tests.
func NewFig1() *Periodic {
	even := network.NewEdgeSet(3)
	even.Add(0, 1)
	even.Add(1, 0)
	even.Add(1, 2)
	even.Add(2, 1)
	odd := network.NewEdgeSet(3)
	p, err := NewPeriodic("fig1", even, odd)
	if err != nil {
		panic(err) // schedule is non-empty by construction
	}
	return p
}

// Rotating gives every node exactly D incoming links per round, from a
// window of neighbors that rotates every round, so consecutive rounds
// contribute distinct in-neighbor sets: (1, D)-dynaDegree with maximal
// churn of who the neighbors are.
type Rotating struct {
	d int
}

// NewRotating builds a rotating in-regular adversary with per-round
// in-degree d ≥ 1.
func NewRotating(d int) (*Rotating, error) {
	if d < 1 {
		return nil, fmt.Errorf("adversary: rotating degree must be ≥ 1, got %d", d)
	}
	return &Rotating{d: d}, nil
}

// Name implements Adversary.
func (r *Rotating) Name() string { return fmt.Sprintf("rotating(d=%d)", r.d) }

// Edges implements Adversary.
func (r *Rotating) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	r.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace.
func (r *Rotating) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	d := r.d
	if d > n-1 {
		d = n - 1
	}
	network.InRegularInto(dst, d, (t*d)%n)
}

// Oblivious implements the state-independence seam.
func (r *Rotating) Oblivious() bool { return true }

// RandomDegree spreads, for every node and every aligned block of B
// rounds, links from D distinct random in-neighbors across the block's
// rounds uniformly at random, and additionally turns every other
// possible link on with probability Extra per round. Within an aligned
// block every node therefore hears from ≥ D distinct neighbors, so the
// trace satisfies (2B−1, D)-dynaDegree for sliding windows (every window
// of 2B−1 rounds contains a full block; tests verify via the checker).
type RandomDegree struct {
	block int
	d     int
	extra float64
	src   *rng.Source // the stream: Intn straight off it, ExpFloat64 through rng
	rng   *rand.Rand

	blockIdx int
	schedule []*network.EdgeSet // the guaranteed links of the current block
	perm     []int              // buildBlock's permutation buffer, reused across receivers and blocks
}

// NewRandomDegree builds the adversary. block ≥ 1 is the guarantee block
// length; d is the distinct-in-neighbor guarantee per block; extra in
// [0,1] is the per-round probability of each additional link.
func NewRandomDegree(block, d int, extra float64, seed int64) (*RandomDegree, error) {
	if block < 1 {
		return nil, fmt.Errorf("adversary: block must be ≥ 1, got %d", block)
	}
	if d < 0 {
		return nil, fmt.Errorf("adversary: degree must be ≥ 0, got %d", d)
	}
	if extra < 0 || extra > 1 {
		return nil, fmt.Errorf("adversary: extra probability %g outside [0,1]", extra)
	}
	src := rng.New(seed)
	return &RandomDegree{block: block, d: d, extra: extra, src: src, rng: rand.New(src), blockIdx: -1}, nil
}

// Name implements Adversary.
func (r *RandomDegree) Name() string {
	return fmt.Sprintf("randomDegree(B=%d,D=%d,extra=%.2f)", r.block, r.d, r.extra)
}

// Edges implements Adversary. Calls must proceed in strictly increasing
// round order (the engine guarantees this): the RNG stream advances with
// every call. Re-running an execution requires a fresh instance with the
// same seed, a Reseed, or the trace package's replay adversary.
func (r *RandomDegree) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	r.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace. It consumes the RNG stream exactly as
// Edges does, so the two paths render identical traces from the same
// seed.
func (r *RandomDegree) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	d := r.d
	if d > n-1 {
		d = n - 1
	}
	if b := t / r.block; b != r.blockIdx {
		r.buildBlock(b, n, d)
	}
	dst.CopyFrom(r.schedule[t%r.block])
	// Extra links are layered with the geometric-skip sampler: same
	// per-pair Bernoulli(extra) distribution, O(extra·n²) draws instead of
	// n(n−1). This changed the RNG stream relative to the old dense
	// per-pair loop — RandomDegree's stream is not a pinned compatibility
	// contract the way the legacy `er` stream is (no committed spec pins
	// its graphs), only per-seed determinism of THIS implementation is.
	sparseBernoulliInto(dst, n, r.extra, r.rng)
}

// Oblivious implements the state-independence seam.
func (r *RandomDegree) Oblivious() bool { return true }

// Reseed implements Reseeder: the next Edges call behaves exactly like
// the first call of a fresh instance built with this seed.
func (r *RandomDegree) Reseed(seed int64) {
	r.rng.Seed(seed)
	r.blockIdx = -1
}

func (r *RandomDegree) buildBlock(b, n, d int) {
	r.blockIdx = b
	if len(r.schedule) != r.block || (r.block > 0 && r.schedule[0].N() != n) {
		r.schedule = make([]*network.EdgeSet, r.block)
		for i := range r.schedule {
			// Auto representation: a block of d-regular rounds at large n
			// is exactly the regime where the n×n bit-matrix per block
			// round dominates memory — CSR holds d·n edges instead.
			r.schedule[i] = network.NewEdgeSetAuto(n)
		}
	} else {
		for _, s := range r.schedule {
			s.Reset()
		}
	}
	if cap(r.perm) < n {
		r.perm = make([]int, n)
	}
	perm := r.perm[:n]
	for v := 0; v < n; v++ {
		// d distinct in-neighbors for v, each scheduled in a random round
		// of the block. The permutation is rand.Perm's, draw for draw
		// (including its i = 0 draw, which swaps nothing but advances the
		// stream), into a reused buffer: every slot is written before it
		// is read, so the previous receiver's contents never show.
		// Source.Intn is rand.Rand.Intn draw for draw, without the
		// interface call per draw.
		for i := range perm {
			j := r.src.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		picked := 0
		for _, u := range perm {
			if u == v {
				continue
			}
			r.schedule[r.src.Intn(r.block)].Add(u, v)
			picked++
			if picked == d {
				break
			}
		}
	}
}
