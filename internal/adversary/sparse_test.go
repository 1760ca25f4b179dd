package adversary

import (
	"math"
	"math/rand"
	"testing"

	"anondyn/internal/network"
)

// TestProbabilisticDenseStreamPinned pins the legacy er adversary's RNG
// stream against an independent reference implementation of the dense
// draw: one uniform per ordered pair in (u, v) row-major order, link on
// u ≠ v when the uniform falls below p. Committed specs and pinned
// seeds reproduce these exact graphs, so this stream is a compatibility
// contract — any change to Probabilistic.EdgesInto that alters it must
// fail here. (The sparse sampler is a deliberately separate stream; see
// SparseProbabilistic.)
func TestProbabilisticDenseStreamPinned(t *testing.T) {
	const n, p, rounds = 23, 0.3, 16
	for _, seed := range []int64{1, 7, 424242} {
		a := mustAdv(NewProbabilistic(p, seed))
		ref := rand.New(rand.NewSource(seed))
		view := SizeView(n)
		for round := 0; round < rounds; round++ {
			want := network.NewEdgeSet(n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && ref.Float64() < p {
						want.Add(u, v)
					}
				}
			}
			if got := a.Edges(round, view); !got.Equal(want) {
				t.Fatalf("seed %d round %d: legacy er stream diverged from the pinned dense draw", seed, round)
			}
		}
	}
}

// sinkProbabilistic keeps the adversaries built under AllocsPerRun on
// the heap, where a caller's would be.
var sinkProbabilistic *Probabilistic

// TestNewProbabilisticOneAllocation: the er adversary holds its
// generator by value, so building one — which a sweep does once per
// worker and cell, and a RunManyStream caller once per run — is a
// single object.
func TestNewProbabilisticOneAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { sinkProbabilistic = mustAdv(NewProbabilistic(0.3, 7)) })
	if allocs != 1 {
		t.Errorf("NewProbabilistic allocates %v objects, want 1", allocs)
	}
}

// er2Reference draws one er2 round from a math/rand stream with the
// textbook flat-index walk: skip ⌊E·(1/λ)⌋+1 cells of the n×n grid,
// E ~ Exp(1) from ExpFloat64 and λ = −ln(1−p), and link every
// off-diagonal cell landed on. Multiplying by 1/λ rather than dividing
// by λ is part of the stream: the two can round apart.
func er2Reference(ref *rand.Rand, n int, p float64) *network.EdgeSet {
	e := network.NewEdgeSet(n)
	invRate := -1 / math.Log1p(-p)
	cells := float64(n) * float64(n)
	for pos := -1.0; ; {
		pos += math.Floor(ref.ExpFloat64()*invRate) + 1
		if pos >= cells {
			return e
		}
		if u, v := int(pos)/n, int(pos)%n; u != v {
			e.Add(u, v)
		}
	}
}

// TestSparseProbabilisticStreamPinned pins the er2 stream against
// er2Reference on rand.NewSource(seed): fresh instances and reseeded
// ones, at sizes on both sides of a bitmap word and at dense and sparse
// p, for enough rounds to wrap the generator's register many times.
func TestSparseProbabilisticStreamPinned(t *testing.T) {
	const rounds = 30
	for _, n := range []int{40, 64, 130} {
		for _, p := range []float64{0.05, 8 / float64(n)} {
			for _, seed := range []int64{1, 99, -3} {
				fresh := mustAdv(NewSparseProbabilistic(p, seed))
				rewound := mustAdv(NewSparseProbabilistic(p, seed+1))
				rewound.Edges(0, SizeView(n))
				rewound.Reseed(seed)
				ref := rand.New(rand.NewSource(seed))
				for round := 0; round < rounds; round++ {
					want := er2Reference(ref, n, p)
					if got := fresh.Edges(round, SizeView(n)); !got.Equal(want) {
						t.Fatalf("n=%d p=%g seed %d round %d: er2 stream diverged from the math/rand reference", n, p, seed, round)
					}
					if got := rewound.Edges(round, SizeView(n)); !got.Equal(want) {
						t.Fatalf("n=%d p=%g seed %d round %d: reseeded er2 stream diverged from the math/rand reference", n, p, seed, round)
					}
				}
			}
		}
	}
}

// TestSparseProbabilisticDeterministicPerSeed: equal (p, seed) pairs
// must render identical traces — the er2 stream is a versioned
// reproducibility contract — and distinct seeds must not.
func TestSparseProbabilisticDeterministicPerSeed(t *testing.T) {
	const n, p, rounds = 40, 0.15, 10
	a := mustAdv(NewSparseProbabilistic(p, 99))
	b := mustAdv(NewSparseProbabilistic(p, 99))
	c := mustAdv(NewSparseProbabilistic(p, 100))
	view := SizeView(n)
	diverged := false
	for round := 0; round < rounds; round++ {
		ea, eb, ec := a.Edges(round, view), b.Edges(round, view), c.Edges(round, view)
		if !ea.Equal(eb) {
			t.Fatalf("round %d: same seed drew different graphs", round)
		}
		if !ea.Equal(ec) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 99 and 100 rendered identical 10-round traces")
	}
}

// TestSparseMatchesDenseDistribution: the geometric-skip sampler must
// draw the same distribution as the dense reference — every ordered
// pair an independent Bernoulli(p). Each pair's hit count over R rounds
// is Binomial(R, p); a fixed seed keeps the check deterministic, and a
// 6σ band (plus the same band on the aggregate count for both samplers)
// would catch any systematic skew — an off-by-one in the skip length
// shifts the effective p for every pair at once.
func TestSparseMatchesDenseDistribution(t *testing.T) {
	const n, p, rounds = 12, 0.3, 400
	pairSD := math.Sqrt(rounds * p * (1 - p))
	for name, a := range map[string]Adversary{
		"er2": mustAdv(NewSparseProbabilistic(p, 5)),
		"er":  mustAdv(NewProbabilistic(p, 5)), // calibrates the bound against the reference
	} {
		view := SizeView(n)
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
		}
		total := 0
		for round := 0; round < rounds; round++ {
			e := a.Edges(round, view)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						if e.Has(u, v) {
							t.Fatalf("%s: self-loop (%d,%d) in round %d", name, u, v, round)
						}
						continue
					}
					if e.Has(u, v) {
						counts[u][v]++
						total++
					}
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				if dev := math.Abs(float64(counts[u][v]) - rounds*p); dev > 6*pairSD {
					t.Errorf("%s: pair (%d,%d) hit %d/%d rounds, %0.1fσ from %g",
						name, u, v, counts[u][v], rounds, dev/pairSD, rounds*p)
				}
			}
		}
		trialsTotal := float64(rounds * n * (n - 1))
		totalSD := math.Sqrt(trialsTotal * p * (1 - p))
		if dev := math.Abs(float64(total) - trialsTotal*p); dev > 6*totalSD {
			t.Errorf("%s: %d edges total, %0.1fσ from %g", name, total, dev/totalSD, trialsTotal*p)
		}
	}
}

// TestSparseWordBoundarySizes drives the sampler at sizes straddling the
// 64-bit word boundary of the edge-set bitmaps: the flattened-index
// arithmetic and the Edges/EdgesInto twin streams must stay exact in
// the one-word, word+1 and multi-word regimes.
func TestSparseWordBoundarySizes(t *testing.T) {
	const p, rounds = 0.1, 12
	for _, n := range []int{64, 65, 128} {
		alloc := mustAdv(NewSparseProbabilistic(p, 3))
		inPlace := mustAdv(NewSparseProbabilistic(p, 3))
		view := SizeView(n)
		dst := network.Complete(n) // must be overwritten, not unioned
		sawEdge := false
		for round := 0; round < rounds; round++ {
			want := alloc.Edges(round, view)
			inPlace.EdgesInto(round, view, dst)
			if !dst.Equal(want) {
				t.Fatalf("n=%d round %d: EdgesInto diverged from Edges", n, round)
			}
			for _, e := range want.Edges() {
				sawEdge = true
				if e[0] == e[1] || e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
					t.Fatalf("n=%d round %d: bad edge %v", n, round, e)
				}
			}
		}
		if !sawEdge {
			t.Errorf("n=%d: no edges in %d rounds at p=%g", n, rounds, p)
		}
	}
}

// TestSparseProbabilisticExtremes: p=0 draws the empty graph, p=1 the
// complete graph, without consuming unbounded RNG.
func TestSparseProbabilisticExtremes(t *testing.T) {
	const n = 33
	view := SizeView(n)
	if e := mustAdv(NewSparseProbabilistic(0, 8)).Edges(0, view); len(e.Edges()) != 0 {
		t.Errorf("p=0 drew %d edges", len(e.Edges()))
	}
	if e := mustAdv(NewSparseProbabilistic(1, 8)).Edges(0, view); !e.Equal(network.Complete(n)) {
		t.Error("p=1 did not draw the complete graph")
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewSparseProbabilistic(bad, 1); err == nil {
			t.Errorf("p=%v accepted", bad)
		}
	}
}

// TestErNamePrecision: %g must keep sparse probabilities
// distinguishable — %.2f collapsed p=8/4097 and p=8/1025 onto the same
// "er(p=0.00)", colliding report columns and spec round-trips.
func TestErNamePrecision(t *testing.T) {
	n1 := mustAdv(NewProbabilistic(8.0/4097, 1)).Name()
	n2 := mustAdv(NewProbabilistic(8.0/1025, 1)).Name()
	if n1 == n2 {
		t.Errorf("er names collide for distinct sparse p: %q", n1)
	}
	s1 := mustAdv(NewSparseProbabilistic(8.0/4097, 1)).Name()
	s2 := mustAdv(NewSparseProbabilistic(8.0/1025, 1)).Name()
	if s1 == s2 {
		t.Errorf("er2 names collide for distinct sparse p: %q", s1)
	}
	if got, want := mustAdv(NewProbabilistic(0.25, 1)).Name(), "er(p=0.25)"; got != want {
		t.Errorf("er name %q, want %q", got, want)
	}
	if got, want := mustAdv(NewSparseProbabilistic(0.25, 1)).Name(), "er2(p=0.25)"; got != want {
		t.Errorf("er2 name %q, want %q", got, want)
	}
}

// TestObliviousMarkers pins which adversaries declare state-independence:
// every view-ignoring adversary must expose the seam (it is what lets
// the engines skip snapshots entirely), and the adaptive ones must not.
func TestObliviousMarkers(t *testing.T) {
	oblivious := map[string]Adversary{
		"complete":     NewComplete(),
		"static":       NewStatic("ring", network.Ring(9)),
		"periodic":     NewFig1(),
		"rotating":     mustAdv(NewRotating(2)),
		"randomDegree": mustAdv(NewRandomDegree(3, 2, 0.1, 1)),
		"er":           mustAdv(NewProbabilistic(0.4, 1)),
		"er2":          mustAdv(NewSparseProbabilistic(0.4, 1)),
		"split":        mustAdv(NewHalves(9)),
		"isolate":      mustAdv(NewIsolate(0)),
	}
	for name, a := range oblivious {
		if !IsOblivious(a) {
			t.Errorf("%s is not marked oblivious", name)
		}
	}
	adaptive := map[string]Adversary{
		"clustered": mustAdv(NewClustered(3)),
		"starve":    mustAdv(NewStarve(2)),
		"chaseMin":  NewChaseMin(),
	}
	for name, a := range adaptive {
		if IsOblivious(a) {
			t.Errorf("%s claims to be oblivious but reads the view", name)
		}
	}
}
