package sim

import (
	"math"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
)

// TestAdversarySeesMonotonicRounds: the engines must consult the
// adversary exactly once per round with strictly increasing round
// numbers — stateful adversaries (RandomDegree, Probabilistic) rely on
// it.
func TestAdversarySeesMonotonicRounds(t *testing.T) {
	var rounds []int
	spy := adversaryFunc(func(round int, view adversary.View) *network.EdgeSet {
		rounds = append(rounds, round)
		return network.Complete(view.N())
	})
	cfg := Config{
		N:         5,
		Procs:     dacProcs(t, 5, 4, spread(5)),
		Adversary: spy,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(rounds) != res.Rounds {
		t.Fatalf("adversary consulted %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("round sequence broken at index %d: got %d", i, r)
		}
	}
}

// roundSpy is a metrics sink that records every sample next to what
// the processes themselves show at the moment it arrives: the range of
// the survivors' values and the count of decided nodes.
type roundSpy struct {
	procs     []core.Process
	crashed   func(node, round int) bool
	samples   []metrics.RoundSample
	wantRange []float64
	decided   []int
}

func (r *roundSpy) RoundDone(s metrics.RoundSample) {
	lo, hi := math.Inf(1), math.Inf(-1)
	decided := 0
	for i, p := range r.procs {
		if p == nil {
			continue
		}
		if _, ok := p.Output(); ok {
			decided++
		}
		if !r.crashed(i, s.Round) {
			lo, hi = math.Min(lo, p.Value()), math.Max(hi, p.Value())
		}
	}
	r.samples = append(r.samples, s)
	r.wantRange = append(r.wantRange, hi-lo)
	r.decided = append(r.decided, decided)
}

func (r *roundSpy) RunDone(metrics.RunSample) {}

// TestRoundSampleRunning: the per-round sample counts the running nodes
// (fault-free and not yet crashed; a Byzantine node never counts), the
// decided ones, and takes the range over the survivors only. Five
// correct nodes and one Byzantine; node 1 hears no one and nobody hears
// it, so it keeps the largest input until it crashes in round 1.
func TestRoundSampleRunning(t *testing.T) {
	const n, byz = 6, 5
	input := func(i int) float64 {
		if i == 1 {
			return 1
		}
		return float64(i) / 8
	}
	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		if i == byz {
			continue
		}
		d, err := core.NewDACPhases(n, i, 2, input(i))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	links := network.NewEdgeSet(n)
	for _, u := range []int{0, 2, 3, 4} {
		for _, v := range []int{0, 2, 3, 4} {
			if u != v {
				links.Add(u, v)
			}
		}
	}
	spy := &roundSpy{procs: procs, crashed: func(node, round int) bool { return node == 1 && round >= 1 }}
	cfg := Config{
		N:         n,
		F:         2,
		Procs:     procs,
		Byzantine: map[int]fault.Strategy{byz: fault.Silent{}},
		Crashes:   fault.Schedule{1: fault.CrashAt(1)},
		Adversary: adversary.NewStatic("without node 1", links),
		Hooks:     Hooks{Metrics: spy},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(3)
	if len(spy.samples) != 3 {
		t.Fatalf("%d samples, want 3", len(spy.samples))
	}
	for r, s := range spy.samples {
		if want := []int{5, 4, 4}[r]; s.Running != want {
			t.Errorf("round %d: Running = %d, want %d", r, s.Running, want)
		}
		if s.Decided != spy.decided[r] {
			t.Errorf("round %d: Decided = %d, want %d", r, s.Decided, spy.decided[r])
		}
		if s.Range != spy.wantRange[r] {
			t.Errorf("round %d: Range = %g, want %g", r, s.Range, spy.wantRange[r])
		}
	}
	// The checks above show something only if some node decided and
	// node 1's input, outside the survivors' range, left the range.
	if last := spy.samples[2]; last.Decided == 0 || spy.samples[0].Range < 0.5 || last.Range >= 0.5 {
		t.Errorf("round 0 range %g, round 2 range %g and %d decided: want ≥ 0.5, < 0.5 and some", spy.samples[0].Range, last.Range, last.Decided)
	}
}
