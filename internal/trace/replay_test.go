package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/network"
	"anondyn/internal/sim"
	"anondyn/internal/trace"
)

func TestNewReplayValidation(t *testing.T) {
	if _, err := trace.NewReplay(3, nil); err == nil {
		t.Error("empty log accepted")
	}
	outOfOrder := []trace.Event{
		{Kind: trace.KindRound, Round: 1, Edges: nil},
	}
	if _, err := trace.NewReplay(3, outOfOrder); err == nil {
		t.Error("out-of-order rounds accepted")
	}
}

func TestReplayEdges(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindRound, Round: 0, Edges: [][2]int{{0, 1}}},
		{Kind: trace.KindBroadcast, Round: 0, Node: 0}, // non-round events skipped
		{Kind: trace.KindRound, Round: 1, Edges: [][2]int{{1, 2}, {2, 0}}},
	}
	r, err := trace.NewReplay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Trace()); got != 2 {
		t.Fatalf("%d rounds replayed, want 2", got)
	}
	e0 := r.Edges(0, adversary.SizeView(3))
	if !e0.Has(0, 1) || e0.Len() != 1 {
		t.Error("round 0 edges wrong")
	}
	e1 := r.Edges(1, adversary.SizeView(3))
	if !e1.Has(1, 2) || !e1.Has(2, 0) {
		t.Error("round 1 edges wrong")
	}
	// Beyond the recording: reuse the final set.
	if got := r.Edges(7, adversary.SizeView(3)); !got.Equal(e1) {
		t.Error("post-recording rounds should replay the final set")
	}
	tr := r.Trace()
	if len(tr) != 2 || !tr[0].Equal(e0) {
		t.Error("Trace() mismatch")
	}
}

// TestReplayReproducesExecution: record a full randomized run, then
// re-run the deterministic algorithm against the replayed adversary and
// demand identical outputs and decision rounds.
func TestReplayReproducesExecution(t *testing.T) {
	n := 7
	mkProcs := func() []core.Process {
		procs := make([]core.Process, n)
		for i := 0; i < n; i++ {
			d, err := core.NewDACPhases(n, i, 8, float64(i)/float64(n-1))
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = d
		}
		return procs
	}
	rd, err := adversary.NewRandomDegree(2, 3, 0.15, 777)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	eng, err := sim.NewEngine(sim.Config{
		N:         n,
		Procs:     mkProcs(),
		Adversary: rd,
		Hooks:     sim.Hooks{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := eng.Run()
	if !orig.Decided {
		t.Fatal("original run undecided")
	}

	replay, err := trace.NewReplay(n, rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := sim.NewEngine(sim.Config{
		N:         n,
		Procs:     mkProcs(),
		Adversary: replay,
	})
	if err != nil {
		t.Fatal(err)
	}
	rerun := eng2.Run()
	if !reflect.DeepEqual(orig.Outputs, rerun.Outputs) {
		t.Errorf("outputs differ:\norig  %v\nrerun %v", orig.Outputs, rerun.Outputs)
	}
	if !reflect.DeepEqual(orig.DecideRound, rerun.DecideRound) {
		t.Error("decide rounds differ")
	}
	if orig.Rounds != rerun.Rounds {
		t.Errorf("rounds: orig %d, rerun %d", orig.Rounds, rerun.Rounds)
	}
}

// TestReplaySurvivesJSONL: the replay still works after serializing the
// log to JSONL and back.
func TestReplaySurvivesJSONL(t *testing.T) {
	a := adversary.NewFig1()
	rec := trace.NewRecorder()
	for round := 0; round < 6; round++ {
		rec.Record(trace.Event{Kind: trace.KindRound, Round: round, Edges: a.Edges(round, adversary.SizeView(3)).Edges()})
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReplay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		want := a.Edges(round, adversary.SizeView(3))
		if got := r.Edges(round, adversary.SizeView(3)); !got.Equal(want) {
			t.Errorf("round %d: replayed edges differ", round)
		}
	}
	tr := r.Trace()
	if network.MaxDynaDegree(tr, []int{0, 1, 2}, 2) < 1 {
		t.Error("replayed Figure 1 lost its (2,1)-dynaDegree")
	}
}
