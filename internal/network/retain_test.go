package network

import (
	"math/rand"
	"slices"
	"testing"
)

// ascendingLog draws a strictly ascending pair log the way the er and
// er2 samplers emit one: senders in order, each sender's receivers
// ascending, every link once.
func ascendingLog(rng *rand.Rand, n int, p float64) [][2]int {
	var log [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				log = append(log, [2]int{u, v})
			}
		}
	}
	return log
}

func sparseFrom(n int, log [][2]int) *EdgeSet {
	s := NewEdgeSetSparse(n)
	for _, p := range log {
		s.AddUnchecked(p[0], p[1])
	}
	return s
}

// assertViews checks both CSR views of s against a set built from
// scratch out of the same links. A list may run past its last row (it
// is sized to the log, duplicates included), so only starts[n] entries
// are compared.
func assertViews(t *testing.T, s, ref *EdgeSet, format string, args ...any) {
	t.Helper()
	n := s.N()
	same := func(rs, ri, gs, gi []int32) bool {
		return slices.Equal(rs, gs) && slices.Equal(ri[:rs[n]], gi[:gs[n]])
	}
	rs, ri := ref.OutCSR()
	gs, gi := s.OutCSR()
	if !same(rs, ri, gs, gi) {
		t.Fatalf(format+": sender-major view differs from a fresh build", args...)
	}
	rs, ri = ref.InCSR()
	gs, gi = s.InCSR()
	if !same(rs, ri, gs, gi) {
		t.Fatalf(format+": receiver-major view differs from a fresh build", args...)
	}
	if s.Len() != ref.Len() {
		t.Fatalf(format+": Len %d, fresh build %d", append(args, s.Len(), ref.Len())...)
	}
}

// TestRetainProperty: over sorted, shuffled and duplicated pair logs
// and dense sets, Retain calls keep once per link in exactly
// ForEachEdge's order, keeps precisely the accepted links, and leaves
// both views equal to a from-scratch rebuild — whether or not a view
// existed before the call, and whether it dropped everything, nothing
// or some. A strictly ascending log is filtered without building the
// sender-major view.
func TestRetainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sizes := []int{1, 2, 3, 63, 64, 65, 129, 200}
	for trial := 0; trial < 400; trial++ {
		n := sizes[rng.Intn(len(sizes))]
		log := ascendingLog(rng, n, rng.Float64()*0.2)
		shape := []string{"sorted", "shuffled", "duplicated", "dense"}[trial%4]
		switch shape {
		case "shuffled":
			rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
		case "duplicated":
			for k := len(log) / 3; k > 0; k-- {
				log = append(log, log[rng.Intn(len(log))])
			}
			rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
		}
		var s *EdgeSet
		if shape == "dense" {
			s = NewEdgeSet(n)
			for _, p := range log {
				s.AddUnchecked(p[0], p[1])
			}
		} else {
			s = sparseFrom(n, log)
		}
		prebuilt := rng.Intn(3) // 0: no view, 1: receiver-major, 2: both
		if s.IsSparse() && prebuilt > 0 {
			s.InCSR()
			if prebuilt == 2 {
				s.OutCSR()
			}
		}
		before := s.Clone().Edges()
		rate := []float64{0, 0.5, 1}[rng.Intn(3)]
		var visited, kept [][2]int
		s.Retain(func(u, v int) bool {
			visited = append(visited, [2]int{u, v})
			if rng.Float64() < rate {
				kept = append(kept, [2]int{u, v})
				return true
			}
			return false
		})
		if !slices.Equal(visited, before) {
			t.Fatalf("trial %d (%s, n=%d): visited %d links, not in ForEachEdge order of %d", trial, shape, n, len(visited), len(before))
		}
		if shape == "sorted" && prebuilt == 0 && s.csr.built&viewOut != 0 {
			t.Fatalf("trial %d: Retain on an ascending log built the sender-major view", trial)
		}
		if got := s.Edges(); !slices.Equal(got, kept) {
			t.Fatalf("trial %d (%s, n=%d): %d links after Retain, want the %d kept", trial, shape, n, len(got), len(kept))
		}
		if !s.IsSparse() {
			ref := NewEdgeSet(n)
			for _, p := range kept {
				ref.AddUnchecked(p[0], p[1])
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(s.InRow(v), ref.InRow(v)) {
					t.Fatalf("trial %d (dense, n=%d): in-row %d out of step with the out rows", trial, n, v)
				}
			}
			continue
		}
		assertViews(t, s, sparseFrom(n, kept), "trial %d (%s, n=%d, prebuilt %d, rate %g)", trial, shape, n, prebuilt, rate)
	}
}

// TestSortedLogViewsMatchShuffled: a strictly ascending log (the fast
// build) and a shuffled copy of it (the general scatter, sort and dedup)
// build identical receiver-major and sender-major views, whichever is
// asked for first.
func TestSortedLogViewsMatchShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 2, 64, 65, 300, 2049} {
		log := ascendingLog(rng, n, 8/float64(n))
		shuffled := slices.Clone(log)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sorted := sparseFrom(n, log)
		if n%2 == 0 {
			sorted.InCSR()
		} else {
			sorted.OutCSR()
		}
		assertViews(t, sorted, sparseFrom(n, shuffled), "n=%d", n)
	}
}

// TestRetainAllocatesNothing: a steady filter round on a sparse set —
// sorted or not — and on a dense one allocates nothing.
func TestRetainAllocatesNothing(t *testing.T) {
	const n = 2049
	rng := rand.New(rand.NewSource(28))
	log := ascendingLog(rng, n, 8.0/n)
	shuffled := slices.Clone(log)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dense := NewEdgeSet(n)
	for name, c := range map[string]struct {
		s   *EdgeSet
		log [][2]int
	}{"sorted": {NewEdgeSetSparse(n), log}, "shuffled": {NewEdgeSetSparse(n), shuffled}, "dense": {dense, log}} {
		round := func() {
			c.s.Reset()
			for _, p := range c.log {
				c.s.AddUnchecked(p[0], p[1])
			}
			c.s.Retain(func(u, v int) bool { return (u^v)&3 != 0 })
			if c.s.IsSparse() {
				c.s.InCSR()
			}
		}
		round()
		if avg := testing.AllocsPerRun(10, round); avg != 0 {
			t.Errorf("%s: a Retain round allocated %g times, want 0", name, avg)
		}
	}
}
