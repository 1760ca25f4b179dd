package baseline

import (
	"math"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/sim"
)

func spread(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i) / float64(n-1)
	}
	return in
}

func runScenario(t *testing.T, n int, procs []core.Process, adv adversary.Adversary, maxRounds int) *sim.Result {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{
		N: n, Procs: procs, Adversary: adv, MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

func TestReliableIteratedOnCompleteGraph(t *testing.T) {
	n, eps := 7, 1e-3
	procs := make([]core.Process, n)
	for i := range procs {
		r, err := NewReliableIterated(n, spread(n)[i], eps)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = r
	}
	res := runScenario(t, n, procs, adversary.NewComplete(), 0)
	if !res.Decided {
		t.Fatal("undecided on the reliable complete graph")
	}
	if res.Rounds != core.PEndDAC(eps) {
		t.Errorf("rounds = %d, want %d", res.Rounds, core.PEndDAC(eps))
	}
	if !res.EpsAgreement(eps) || !res.Valid() {
		t.Error("correctness violated on its home turf")
	}
}

func TestReliableIteratedBreaksUnderSplit(t *testing.T) {
	// The motivating failure: no quorum discipline means the two halves
	// both happily "converge" to different values — DAC's raison d'être.
	n := 6
	halves, err := adversary.NewHalves(n)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]core.Process, n)
	for i := range procs {
		r, err := NewReliableIterated(n, spread(n)[i], 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = r
	}
	res := runScenario(t, n, procs, halves, 0)
	if !res.Decided {
		t.Fatal("reliable-iterated should terminate blindly")
	}
	if res.EpsAgreement(0.3) {
		t.Errorf("halves agreed (range %g) — split should break it", res.OutputRange())
	}
}

func TestBACReliableTrimsByzantine(t *testing.T) {
	n, f := 7, 2
	byz := map[int]fault.Strategy{
		0: fault.Extremist{Value: 1},
		6: fault.Extremist{Value: 0},
	}
	procs := make([]core.Process, n)
	for i := range procs {
		if _, isByz := byz[i]; isByz {
			continue
		}
		b, err := NewBACReliable(n, f, spread(n)[i], 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = b
	}
	eng, err := sim.NewEngine(sim.Config{
		N: n, F: f, Procs: procs, Byzantine: byz, Adversary: adversary.NewComplete(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("undecided")
	}
	if !res.Valid() {
		t.Errorf("Byzantine extremes dragged outputs outside the hull: %v", res.Outputs)
	}
	if !res.EpsAgreement(1e-2) {
		t.Errorf("range %g too wide", res.OutputRange())
	}
}

func TestBACReliableValidation(t *testing.T) {
	if _, err := NewBACReliable(6, 2, 0.5, 0.1); err == nil {
		t.Error("n < 3f+1 accepted")
	}
	if _, err := NewBACReliable(7, 2, 0.5, 0.1); err != nil {
		t.Errorf("n = 3f+1 rejected: %v", err)
	}
}

func TestMegaRoundKnowsT(t *testing.T) {
	// Fig-1-style periodic adversary with period 2 (empty odd rounds):
	// MegaRound with T=2 terminates; with T=1 it must stall forever (it
	// updates every round but half the rounds deliver nothing — it still
	// needs the quorum, which arrives only on even rounds; with T=1 the
	// quorum state resets every round... it can still collect on even
	// rounds — so instead use a schedule where messages for one node
	// alternate sources across rounds).
	n, eps := 5, 0.1
	procsT2 := make([]core.Process, n)
	for i := range procsT2 {
		m, err := NewMegaRound(n, 2, i, spread(n)[i], eps)
		if err != nil {
			t.Fatal(err)
		}
		procsT2[i] = m
	}
	// Adversary: rotating degree 2 but only ~half the needed senders per
	// round — over 2 rounds each node accumulates ≥ ⌊n/2⌋ distinct.
	rot, err := adversary.NewRotating(2)
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, n, procsT2, rot, 2000)
	if !res.Decided {
		t.Fatal("MegaRound(T=2) undecided under rotating(2)")
	}
	if !res.Valid() || !res.EpsAgreement(eps) {
		t.Error("MegaRound correctness violated")
	}
	// It needs ~T rounds per phase: strictly more rounds than DAC's
	// pEnd on the same adversary.
	if res.Rounds < 2*core.PEndDAC(eps) {
		t.Errorf("rounds = %d, expected ≥ T·pEnd = %d", res.Rounds, 2*core.PEndDAC(eps))
	}
}

// TestMegaRoundReinitMatchesFresh: processes driven through a whole run
// and then Reinit with new inputs must replay a fresh build's execution
// exactly.
func TestMegaRoundReinitMatchesFresh(t *testing.T) {
	checkReinitMatchesFresh(t, func(i int, input float64) (core.Process, error) {
		return NewMegaRound(5, 2, i, input, 0.1)
	})
}

// TestReinitMatchesFresh is TestMegaRoundReinitMatchesFresh for the
// other baselines.
func TestReinitMatchesFresh(t *testing.T) {
	for name, mk := range map[string]func(i int, input float64) (core.Process, error){
		"ReliableIterated": func(_ int, input float64) (core.Process, error) { return NewReliableIterated(5, input, 0.1) },
		"BACReliable":      func(_ int, input float64) (core.Process, error) { return NewBACReliable(5, 1, input, 0.1) },
		"FullInfo":         func(i int, input float64) (core.Process, error) { return NewFullInfo(5, i, input, 0.1) },
		"FloodMin":         func(_ int, input float64) (core.Process, error) { return NewFloodMin(3, math.Round(input)) },
	} {
		t.Run(name, func(t *testing.T) { checkReinitMatchesFresh(t, mk) })
	}
}

// checkReinitMatchesFresh runs a 5-node fleet built by mk to the end on
// rotating:2, reinitializes it with new inputs, and requires the rerun
// to equal a fresh fleet's run bit for bit.
func checkReinitMatchesFresh(t *testing.T, mk func(i int, input float64) (core.Process, error)) {
	t.Helper()
	const n = 5
	build := func(inputs []float64) []core.Process {
		procs := make([]core.Process, n)
		for i := range procs {
			p, err := mk(i, inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		return procs
	}
	run := func(procs []core.Process) *sim.Result {
		rot, err := adversary.NewRotating(2)
		if err != nil {
			t.Fatal(err)
		}
		return runScenario(t, n, procs, rot, 2000)
	}
	recycled := build(spread(n))
	run(recycled) // dirty every field
	fresh := build([]float64{0.9, 0.1, 0.5, 0.3, 0.7})
	for i, p := range recycled {
		p.Reinit(fresh[i].Value()) // a fresh node's value is its input
	}
	if got, want := run(recycled), run(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("reinit run diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestMegaRoundValidation(t *testing.T) {
	if _, err := NewMegaRound(5, 0, 0, 0.5, 0.1); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewMegaRound(5, 1, 5, 0.5, 0.1); err == nil {
		t.Error("selfPort out of range accepted")
	}
}

func TestFullInfoConvergesOnFig1(t *testing.T) {
	// Figure 1's network: 3 nodes, links only on even rounds. FullInfo
	// needs ⌊3/2⌋+1 = 2 distinct phase-p values; the middle node relays
	// full histories, so everyone terminates.
	n, eps := 3, 0.1
	procs := make([]core.Process, n)
	for i := range procs {
		fi, err := NewFullInfo(n, i, spread(n)[i], eps)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = fi
	}
	res := runScenario(t, n, procs, adversary.NewFig1(), 500)
	if !res.Decided {
		t.Fatal("FullInfo undecided on Figure 1")
	}
	if !res.Valid() || !res.EpsAgreement(eps) {
		t.Errorf("FullInfo correctness violated: range %g", res.OutputRange())
	}
}

func TestFullInfoHistoryGrows(t *testing.T) {
	fi, err := NewFullInfo(3, 0, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m0 := fi.Broadcast()
	if len(m0.History) != 1 {
		t.Fatalf("initial history = %d entries, want 1 (phase 0)", len(m0.History))
	}
	// Advance one phase: history must now carry both phases.
	fi.DeliverAll([]core.Delivery{{Port: 1, Msg: core.Message{Value: 0.5, Phase: 0}}})
	if fi.Phase() != 1 {
		t.Fatal("setup: no advance")
	}
	m1 := fi.Broadcast()
	if len(m1.History) != 2 {
		t.Errorf("history after one phase = %d entries, want 2", len(m1.History))
	}
	// Bandwidth accounting sees the growth — this is the cost the §VII
	// trade-off is about.
}

func TestFullInfoIgnoresBehindSenders(t *testing.T) {
	fi, err := NewFullInfo(5, 0, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Jump-start to phase 1 via two deliveries.
	fi.DeliverAll([]core.Delivery{{Port: 1, Msg: core.Message{Value: 0.3, Phase: 0}}})
	fi.DeliverAll([]core.Delivery{{Port: 2, Msg: core.Message{Value: 0.7, Phase: 0}}})
	if fi.Phase() != 1 {
		t.Fatal("setup failed")
	}
	// A sender still at phase 0 with no phase-1 history: not countable.
	fi.DeliverAll([]core.Delivery{{Port: 3, Msg: core.Message{Value: 0.1, Phase: 0}}})
	if fi.Phase() != 1 {
		t.Error("behind sender advanced the phase")
	}
	// A sender whose history CONTAINS phase 1 counts even though its
	// current phase is 3.
	fi.DeliverAll([]core.Delivery{{Port: 4, Msg: core.Message{
		Value: 0.9, Phase: 3,
		History: []core.HistEntry{{Value: 0.6, Phase: 1}, {Value: 0.4, Phase: 0}},
	}}})
	fi.DeliverAll([]core.Delivery{{Port: 3, Msg: core.Message{Value: 0.6, Phase: 1}}})
	if fi.Phase() != 2 {
		t.Errorf("phase = %d, want 2", fi.Phase())
	}
	if math.IsNaN(fi.Value()) {
		t.Error("NaN value")
	}
}
