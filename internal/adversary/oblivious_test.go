package adversary

import (
	"math/rand"
	"strings"
	"testing"

	"anondyn/internal/network"
)

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// render draws the first rounds edge sets of an oblivious adversary.
func render(a Adversary, n, rounds int) network.Trace {
	tr := make(network.Trace, rounds)
	for t := range tr {
		tr[t] = a.Edges(t, SizeView(n))
	}
	return tr
}

func TestComplete(t *testing.T) {
	a := NewComplete()
	e := a.Edges(0, SizeView(5))
	if e.Len() != 20 {
		t.Errorf("Len = %d, want 20", e.Len())
	}
	if a.Name() != "complete" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestStatic(t *testing.T) {
	g := network.Ring(4)
	a := NewStatic("ring", g)
	if got := a.Edges(0, SizeView(4)); !got.Equal(g) {
		t.Error("static adversary altered the graph")
	}
	if got := a.Edges(99, SizeView(4)); !got.Equal(g) {
		t.Error("static adversary varies with round")
	}
	if !strings.Contains(a.Name(), "ring") {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestPeriodic(t *testing.T) {
	a, err := NewPeriodic("ab", network.Ring(3), network.NewEdgeSet(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Period() != 2 {
		t.Errorf("Period = %d, want 2", a.Period())
	}
	if got := a.Edges(0, SizeView(3)); got.Len() == 0 {
		t.Error("round 0 should be the ring")
	}
	if got := a.Edges(1, SizeView(3)); got.Len() != 0 {
		t.Error("round 1 should be empty")
	}
	if got := a.Edges(2, SizeView(3)); got.Len() == 0 {
		t.Error("round 2 should cycle back to the ring")
	}
	if _, err := NewPeriodic("empty"); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestFig1MatchesPaper(t *testing.T) {
	a := NewFig1()
	tr := render(a, 3, 12)
	ff := allNodes(3)
	if network.MaxDynaDegree(tr, ff, 2) < 1 {
		t.Error("Figure 1 must satisfy (2,1)-dynaDegree")
	}
	if network.MaxDynaDegree(tr, ff, 1) >= 1 {
		t.Error("Figure 1 must not satisfy (1,1)-dynaDegree")
	}
	even := a.Edges(0, SizeView(3))
	// Paper (1-based): {(1,2),(2,1),(2,3),(3,2)} → 0-based edges below.
	for _, want := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !even.Has(want[0], want[1]) {
			t.Errorf("even round missing edge %v", want)
		}
	}
	if even.Len() != 4 {
		t.Errorf("even round has %d edges, want 4", even.Len())
	}
	if odd := a.Edges(1, SizeView(3)); odd.Len() != 0 {
		t.Error("odd round should be empty")
	}
}

func TestRotatingDegreeEveryRound(t *testing.T) {
	a, err := NewRotating(3)
	if err != nil {
		t.Fatal(err)
	}
	n := 7
	tr := render(a, n, 20)
	for r, e := range tr {
		for v := 0; v < n; v++ {
			if got := e.InDegree(v); got != 3 {
				t.Fatalf("round %d: InDegree(%d) = %d, want 3", r, v, got)
			}
		}
	}
	// (1,3)-dynaDegree must hold by construction.
	if network.MaxDynaDegree(tr, allNodes(n), 1) < 3 {
		t.Error("rotating(3) must satisfy (1,3)-dynaDegree")
	}
	// Rotation should accumulate all neighbors quickly: over 3 rounds a
	// node hears ≥ min(6, …) distinct senders — more than 3.
	if got := network.MaxDynaDegree(tr, allNodes(n), 3); got <= 3 {
		t.Errorf("3-round union degree = %d, want > 3 (not rotating)", got)
	}
	if _, err := NewRotating(0); err == nil {
		t.Error("degree 0 accepted")
	}
}

func TestRotatingClampsDegree(t *testing.T) {
	a, err := NewRotating(10)
	if err != nil {
		t.Fatal(err)
	}
	e := a.Edges(0, SizeView(4))
	for v := 0; v < 4; v++ {
		if got := e.InDegree(v); got != 3 {
			t.Errorf("InDegree(%d) = %d, want clamped 3", v, got)
		}
	}
}

func TestRandomDegreeGuarantee(t *testing.T) {
	block, d, n := 3, 4, 9
	a, err := NewRandomDegree(block, d, 0, 12345)
	if err != nil {
		t.Fatal(err)
	}
	tr := render(a, n, 30)
	ff := allNodes(n)
	// Aligned blocks guarantee D distinct in-neighbors; sliding windows
	// of 2B−1 rounds contain a full block.
	for start := 0; start+block <= len(tr); start += block {
		if got := network.MaxDynaDegree(tr[start:start+block], ff, block); got < d {
			t.Fatalf("block %d: degree %d < %d", start/block, got, d)
		}
	}
	if network.MaxDynaDegree(tr, ff, 2*block-1) < d {
		t.Errorf("randomDegree must satisfy (2B−1, D)-dynaDegree")
	}
}

func TestRandomDegreeExtraEdges(t *testing.T) {
	a, err := NewRandomDegree(1, 1, 1.0, 1) // extra=1: complete every round
	if err != nil {
		t.Fatal(err)
	}
	e := a.Edges(0, SizeView(5))
	if e.Len() != 20 {
		t.Errorf("extra=1 should give the complete graph, got %d edges", e.Len())
	}
}

func TestRandomDegreeDeterministicPerSeed(t *testing.T) {
	a1, _ := NewRandomDegree(2, 3, 0.2, 99)
	a2, _ := NewRandomDegree(2, 3, 0.2, 99)
	for r := 0; r < 10; r++ {
		e1 := a1.Edges(r, SizeView(8))
		e2 := a2.Edges(r, SizeView(8))
		if !e1.Equal(e2) {
			t.Fatalf("round %d differs across same-seed instances", r)
		}
	}
}

// randomDegreePermReference renders RandomDegree's trace the way
// buildBlock was first written: one rng.Perm(n) allocation per receiver
// per block. The in-place permutation must reproduce it draw for draw.
func randomDegreePermReference(block, d int, extra float64, seed int64, n, rounds int) []*network.EdgeSet {
	rng := rand.New(rand.NewSource(seed))
	var schedule, out []*network.EdgeSet
	for t := 0; t < rounds; t++ {
		if t%block == 0 {
			schedule = schedule[:0]
			for i := 0; i < block; i++ {
				schedule = append(schedule, network.NewEdgeSet(n))
			}
			for v := 0; v < n; v++ {
				picked := 0
				for _, u := range rng.Perm(n) {
					if u == v {
						continue
					}
					schedule[rng.Intn(block)].Add(u, v)
					if picked++; picked == d {
						break
					}
				}
			}
		}
		e := schedule[t%block].Clone()
		sparseBernoulliInto(e, n, extra, rng)
		out = append(out, e)
	}
	return out
}

// TestRandomDegreeGoldenAgainstPerm: the edge sets of the first three
// blocks, for two seeds, equal the rand.Perm implementation's — through
// Edges, through EdgesInto, and again after an in-place Reseed (whose
// rng.Seed must rewind to the stream rand.NewSource(seed) starts).
func TestRandomDegreeGoldenAgainstPerm(t *testing.T) {
	const n, block, d, extra = 13, 3, 5, 0.05
	view := SizeView(n)
	for _, seed := range []int64{7, 20240929} {
		want := randomDegreePermReference(block, d, extra, seed, n, 3*block)
		viaEdges := mustAdv(NewRandomDegree(block, d, extra, seed))
		viaInto := mustAdv(NewRandomDegree(block, d, extra, seed+1))
		viaInto.Edges(0, view) // advance the stream, then rewind it in place
		viaInto.Reseed(seed)
		dst := network.NewEdgeSet(n)
		for r, w := range want {
			if got := viaEdges.Edges(r, view); !got.Equal(w) {
				t.Fatalf("seed %d round %d: Edges %v, rand.Perm reference %v", seed, r, got.Edges(), w.Edges())
			}
			viaInto.EdgesInto(r, view, dst)
			if !dst.Equal(w) {
				t.Fatalf("seed %d round %d: EdgesInto after Reseed %v, rand.Perm reference %v", seed, r, dst.Edges(), w.Edges())
			}
		}
	}
}

func TestRandomDegreeValidation(t *testing.T) {
	if _, err := NewRandomDegree(0, 1, 0, 1); err == nil {
		t.Error("block 0 accepted")
	}
	if _, err := NewRandomDegree(1, -1, 0, 1); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := NewRandomDegree(1, 1, 1.5, 1); err == nil {
		t.Error("extra > 1 accepted")
	}
}

// Period returns the schedule length.
func (p *Periodic) Period() int { return len(p.sets) }
