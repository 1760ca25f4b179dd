package chaos

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// completeBase is a minimal non-InPlace complete-graph adversary, so
// the wrapper's allocating fallback path gets exercised too.
type completeBase struct{}

func (completeBase) Name() string { return "completebase" }
func (completeBase) Edges(_ int, view adversary.View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	e.FillComplete()
	return e
}

// TestWrapAdversaryPassthrough: a storm without connectivity windows
// returns the base adversary itself — no wrapper cost for crash-only
// storms.
func TestWrapAdversaryPassthrough(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 20},
		Rounds: 10,
		Events: []Event{{Kind: "crash", Round: 2, Count: 3}},
	}
	base := anondyn.Complete()
	if got := s.CompileStorm(0).WrapAdversary(base); got != base {
		t.Error("crash-only storm wrapped the adversary")
	}
}

// TestPartitionCutsCrossingEdges: during the window, every link
// crossing the cut is gone and every same-side link survives; outside
// the window the set is untouched.
func TestPartitionCutsCrossingEdges(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 40, Groups: 4},
		Rounds: 30,
		Events: []Event{{Kind: "partition", Round: 5, Duration: 3, Groups: []int{0}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(2)
	wrapped := st.WrapAdversary(anondyn.Complete())
	if wrapped.Name() != "complete+storm" {
		t.Errorf("wrapper name = %q", wrapped.Name())
	}
	view := adversary.SizeView(40)
	inCut := func(node int) bool { return node < 10 } // group 0 = IDs [0, 10)

	for _, round := range []int{4, 5, 7, 8} {
		e := wrapped.Edges(round, view)
		active := round >= 5 && round < 8
		e2 := network.NewEdgeSet(40)
		e2.FillComplete()
		want := e2.Len()
		if active {
			want -= 2 * 10 * 30 // both directions across the cut
		}
		if e.Len() != want {
			t.Errorf("round %d: %d edges, want %d", round, e.Len(), want)
		}
		e.ForEachEdge(func(u, v int) bool {
			if active && inCut(u) != inCut(v) {
				t.Errorf("round %d: cut-crossing edge %d→%d survived", round, u, v)
				return false
			}
			return true
		})
	}
}

// TestStarveDenseSparseParity: the wrapper's starvation draws walk
// edges in sender-major order in both representations, so the filtered
// set is identical across the dense/CSR switch — the determinism
// contract behind sharding large storms.
func TestStarveDenseSparseParity(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 60},
		Rounds: 20,
		Events: []Event{{Kind: "starve", Round: 1, Duration: 20, Rate: 0.4}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		// Fresh wrappers per representation: filter state is scratch.
		wd := s.CompileStorm(9).WrapAdversary(completeBase{}).(*stormAdversary)
		ws := s.CompileStorm(9).WrapAdversary(completeBase{}).(*stormAdversary)
		dense := network.NewEdgeSet(60)
		dense.FillComplete()
		wd.filter(round, dense)
		sparse := network.NewEdgeSetSparse(60)
		sparse.FillComplete()
		ws.filter(round, sparse)
		if dense.Len() != sparse.Len() {
			t.Fatalf("round %d: dense kept %d edges, sparse %d", round, dense.Len(), sparse.Len())
		}
		if dense.Len() == 60*59 {
			t.Errorf("round %d: starvation at rate 0.4 dropped nothing", round)
		}
		sparse.ForEachEdge(func(u, v int) bool {
			if !dense.Has(u, v) {
				t.Errorf("round %d: edge %d→%d in sparse result only", round, u, v)
				return false
			}
			return true
		})
	}
}

// TestStarveDeterministicPerRound: the same round refilters to the
// same set (each round's drop stream is self-seeded, not positional),
// and different rounds draw different sets.
func TestStarveDeterministicPerRound(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 30},
		Rounds: 20,
		Events: []Event{{Kind: "starve", Round: 1, Duration: 20, Rate: 0.3}},
	}
	w := s.CompileStorm(0).WrapAdversary(completeBase{})
	view := adversary.SizeView(30)
	a := w.Edges(3, view)
	b := w.Edges(5, view)
	c := w.Edges(3, view)
	if !a.Equal(c) {
		t.Error("round 3 refiltered to a different set")
	}
	if a.Equal(b) {
		t.Error("rounds 3 and 5 drew identical starvation")
	}
}

// goldenStorm wraps er2 in a storm whose rounds 1–6 run overlapping
// partition and starve windows (round 0 and 7 pass through untouched).
func goldenStorm(t *testing.T) adversary.InPlace {
	t.Helper()
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 200, Groups: 4},
		Rounds: 40,
		Events: []Event{
			{Kind: "partition", Round: 2, Duration: 3, Groups: []int{1}},
			{Kind: "starve", Round: 1, Duration: 6, Rate: 0.3},
			{Kind: "starve", Round: 3, Duration: 2, Rate: 0.5},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s.CompileStorm(7).WrapAdversary(anondyn.SparseProbabilistic(0.05, 3)).(adversary.InPlace)
}

// TestStarveGolden pins what the filter keeps, round by round, on a CSR
// set: the link count and an FNV-1a digest of the sender-major edge
// list. The values were recorded before the filter's scratch moved into
// the wrapper; any change to them replays committed storm specs
// differently (see the draw-order contract in stream.go).
func TestStarveGolden(t *testing.T) {
	want := []struct {
		edges  int
		digest uint64
	}{
		{1981, 0xf0a38235c5dbeda7},
		{1397, 0xd94df51dd07b795b},
		{890, 0xd77a66beca607cd4},
		{441, 0xd249c0e80b3c7b2b},
		{459, 0x707b6eccef9ac276},
		{1326, 0x2621a4b9cbd17360},
		{1412, 0xa13e18baa4dba8fe},
		{1996, 0x63ebf19f47e0b57d},
	}
	w := goldenStorm(t)
	view := adversary.SizeView(200)
	dst := network.NewEdgeSetSparse(200)
	for round, g := range want {
		w.EdgesInto(round, view, dst)
		h := fnv.New64a()
		dst.ForEachEdge(func(u, v int) bool {
			fmt.Fprintf(h, "%d>%d,", u, v)
			return true
		})
		if dst.Len() != g.edges || h.Sum64() != g.digest {
			t.Errorf("round %d: %d edges, digest %#016x; want %d, %#016x", round, dst.Len(), h.Sum64(), g.edges, g.digest)
		}
	}
}

// TestStormFilterNoAllocs: a steady round with active cut and starve
// windows allocates nothing on a CSR set — the filter's scratch and
// streams live in the wrapper.
func TestStormFilterNoAllocs(t *testing.T) {
	w := goldenStorm(t)
	view := adversary.SizeView(200)
	dst := network.NewEdgeSetSparse(200)
	for round := 0; round < 8; round++ {
		w.EdgesInto(round, view, dst) // grow the scratch to its high-water mark
	}
	round := 0
	allocs := testing.AllocsPerRun(50, func() {
		w.EdgesInto(3+round%2, view, dst) // rounds 3 and 4: both windows active
		dst.InCSR()
		round++
	})
	if allocs != 0 {
		t.Errorf("active storm round allocated %g times, want 0", allocs)
	}
}

// countingBase counts how many rounds its base renders.
type countingBase struct {
	adversary.InPlace
	calls int
}

func (c *countingBase) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	c.calls++
	c.InPlace.EdgesInto(t, view, dst)
}

func (c *countingBase) Oblivious() bool { return true }

// TestStormPipelinedRun: a storm run on CSR sets yields the same Result
// whether the engine builds each next round on a second goroutine
// (GOMAXPROCS ≥ 2) or not (GOMAXPROCS = 1). A pipelined run that decides
// has rendered one round past its decision, so the count of base renders
// shows the storm filter really ran on the build goroutine — which the
// CI's pinned-GOMAXPROCS race pass over this package relies on.
func TestStormPipelinedRun(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 64, Groups: 4},
		Rounds: 60,
		Events: []Event{
			{Kind: "crash", Round: 3, Count: 2, Mode: "silent"},
			{Kind: "partition", Round: 2, Duration: 2, Groups: []int{1}},
			{Kind: "starve", Round: 1, Duration: 8, Rate: 0.2},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(procs int) (*anondyn.Result, int) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		st := s.CompileStorm(3)
		base := &countingBase{InPlace: anondyn.SparseProbabilistic(0.4, 5).(adversary.InPlace)}
		res, err := anondyn.Scenario{
			N: 64, F: len(st.Crashes), Eps: 1e-3, PEndOverride: 4,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.SpreadInputs(64),
			Adversary: st.WrapAdversary(base),
			Crashes:   st.Crashes,
			MaxRounds: 200,
			ForceCSR:  true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, base.calls
	}
	seq, seqCalls := run(1)
	piped, pipedCalls := run(max(2, runtime.GOMAXPROCS(0)))
	if !seq.Decided {
		t.Fatal("storm run undecided — the one-round-ahead check is vacuous")
	}
	if seqCalls != seq.Rounds {
		t.Errorf("sequential run rendered %d rounds in %d", seqCalls, seq.Rounds)
	}
	if pipedCalls != piped.Rounds+1 {
		t.Errorf("pipelined run rendered %d rounds in %d, want one ahead", pipedCalls, piped.Rounds)
	}
	if !reflect.DeepEqual(seq, piped) {
		t.Errorf("pipelined storm run differs:\nseq   %+v\npiped %+v", seq, piped)
	}
}

// TestWrapAdversaryInPlace: EdgesInto on an InPlace base matches the
// allocating path exactly.
func TestWrapAdversaryInPlace(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 25, Groups: 5},
		Rounds: 12,
		Events: []Event{{Kind: "partition", Round: 2, Duration: 6, Groups: []int{1, 3}}},
	}
	base := anondyn.Complete()
	if _, ok := base.(adversary.InPlace); !ok {
		t.Skip("complete adversary lost its InPlace fast path")
	}
	w := s.CompileStorm(4).WrapAdversary(base)
	view := adversary.SizeView(25)
	for round := 1; round <= 9; round++ {
		dst := network.NewEdgeSet(25)
		w.(adversary.InPlace).EdgesInto(round, view, dst)
		if want := w.Edges(round, view); !dst.Equal(want) {
			t.Errorf("round %d: EdgesInto differs from Edges", round)
		}
	}
	if !adversary.IsOblivious(w) {
		t.Error("wrapper hides the base's obliviousness")
	}
}
