package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1Trace builds the paper's Figure 1 schedule for `rounds` rounds:
// even rounds have links {(0,1),(1,0),(1,2),(2,1)}, odd rounds none.
// (Figure 1a shows round t odd = empty with 1-based indexing; only the
// alternation matters for the property.)
func fig1Trace(rounds int) Trace {
	even := NewEdgeSet(3)
	even.Add(0, 1)
	even.Add(1, 0)
	even.Add(1, 2)
	even.Add(2, 1)
	odd := NewEdgeSet(3)
	tr := make(Trace, rounds)
	for t := range tr {
		if t%2 == 0 {
			tr[t] = even
		} else {
			tr[t] = odd
		}
	}
	return tr
}

func allNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

func TestFig1DynaDegree(t *testing.T) {
	tr := fig1Trace(10)
	ff := allNodes(3)
	// The paper's example: (2,1)-dynaDegree holds, (2,2) does not (node 1
	// has 2 in-neighbors on even rounds, nodes 0 and 2 only 1).
	if got := MaxDynaDegree(tr, ff, 2); got != 1 {
		t.Errorf("MaxDynaDegree(T=2) = %d, want 1", got)
	}
	// (1,1) fails: the odd rounds are empty.
	if got := MaxDynaDegree(tr, ff, 1); got != 0 {
		t.Errorf("MaxDynaDegree(T=1) = %d, want 0", got)
	}
	if got := MinTForDegree(tr, ff, 1); got != 2 {
		t.Errorf("MinTForDegree(D=1) = %d, want 2", got)
	}
}

func TestDynaDegreeCompleteGraph(t *testing.T) {
	n := 6
	tr := Trace{Complete(n), Complete(n), Complete(n)}
	ff := allNodes(n)
	if got := MaxDynaDegree(tr, ff, 1); got != n-1 {
		t.Errorf("MaxDynaDegree = %d, want %d", got, n-1)
	}
}

func TestDynaDegreeFaultFreeSubset(t *testing.T) {
	// Node 2 is isolated; the property over {0,1} must not care.
	n := 3
	e := NewEdgeSet(n)
	e.Add(0, 1)
	e.Add(1, 0)
	tr := Trace{e, e}
	if MaxDynaDegree(tr, allNodes(n), 1) >= 1 {
		t.Error("isolated node 2 should break (1,1) over all nodes")
	}
	if MaxDynaDegree(tr, []int{0, 1}, 1) < 1 {
		t.Error("(1,1) over fault-free {0,1} should hold")
	}
	// Links from a faulty node still count towards a fault-free node's
	// degree (Definition 1 counts any incoming neighbor).
	e2 := NewEdgeSet(n)
	e2.Add(2, 0)
	e2.Add(2, 1)
	tr2 := Trace{e2}
	if MaxDynaDegree(tr2, []int{0, 1}, 1) < 1 {
		t.Error("links from node 2 must count for nodes 0,1")
	}
}

func TestDynaDegreeShortTraceVacuous(t *testing.T) {
	tr := fig1Trace(1)
	ff := allNodes(3)
	// Window T=2 does not fit in a 1-round trace: vacuously true, max
	// degree capped at n−1.
	if got := MaxDynaDegree(tr, ff, 2); got != 2 {
		t.Errorf("vacuous MaxDynaDegree = %d, want n−1 = 2", got)
	}
	if got := MaxDynaDegree(Trace{}, ff, 1); got != 0 {
		t.Errorf("empty trace MaxDynaDegree = %d, want 0", got)
	}
}

func TestMinTForDegreeUnsatisfiable(t *testing.T) {
	n := 4
	empty := NewEdgeSet(n)
	tr := Trace{empty, empty, empty}
	if got := MinTForDegree(tr, allNodes(n), 1); got != 0 {
		t.Errorf("MinTForDegree on empty trace = %d, want 0", got)
	}
	if got := MinTForDegree(Trace{}, allNodes(n), 1); got != 1 {
		t.Errorf("MinTForDegree on zero-length trace = %d, want vacuous 1", got)
	}
}

// TestDynaDegreeQuick: the word-wise checker agrees with a naive
// per-window recount on random traces, and satisfaction is monotone in
// T and antitone in D.
func TestDynaDegreeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(3))}
	property := func(seed int64, nRaw, roundsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 2
		rounds := int(roundsRaw)%10 + 1
		tr := make(Trace, rounds)
		for r := range tr {
			e := NewEdgeSet(n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && rng.Float64() < 0.3 {
						e.Add(u, v)
					}
				}
			}
			tr[r] = e
		}
		ff := allNodes(n)
		for T := 1; T <= rounds; T++ {
			want := naiveWorstDegree(tr, ff, T)
			if got := MaxDynaDegree(tr, ff, T); got != want {
				t.Logf("n=%d rounds=%d T=%d: got %d want %d", n, rounds, T, got, want)
				return false
			}
			if T > 1 && MaxDynaDegree(tr, ff, T) < MaxDynaDegree(tr, ff, T-1) {
				t.Log("monotonicity in T violated")
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func naiveWorstDegree(tr Trace, ff []int, T int) int {
	if len(tr) < T {
		return tr[0].N() - 1
	}
	n := tr[0].N()
	worst := n - 1
	for start := 0; start+T <= len(tr); start++ {
		for _, v := range ff {
			in := make(map[int]bool)
			for r := start; r < start+T; r++ {
				for u := 0; u < n; u++ {
					if u != v && tr[r].Has(u, v) {
						in[u] = true
					}
				}
			}
			if len(in) < worst {
				worst = len(in)
			}
		}
	}
	return worst
}
