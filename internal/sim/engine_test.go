package sim

import (
	"errors"
	"math"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// dacProcs builds n DAC nodes with the given inputs and explicit phase
// budget, using identity self-ports.
func dacProcs(t *testing.T, n, pEnd int, inputs []float64) []core.Process {
	t.Helper()
	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		d, err := core.NewDACPhases(n, i, pEnd, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	return procs
}

// dbacProcs builds DBAC nodes, leaving nil entries at Byzantine IDs.
func dbacProcs(t *testing.T, n, f, pEnd int, inputs []float64, byz map[int]fault.Strategy) []core.Process {
	t.Helper()
	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		if _, isByz := byz[i]; isByz {
			continue
		}
		d, err := core.NewDBACPhases(n, f, i, pEnd, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	return procs
}

func spread(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i) / float64(n-1)
	}
	return in
}

func TestEngineDACCompleteGraph(t *testing.T) {
	n := 7
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 10, spread(n)),
		Adversary: adversary.NewComplete(),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("did not decide on the complete graph")
	}
	// Complete graph: one phase per round, so exactly pEnd rounds.
	if res.Rounds != 10 {
		t.Errorf("rounds = %d, want 10", res.Rounds)
	}
	if !res.EpsAgreement(math.Pow(0.5, 10)) {
		t.Errorf("range %g exceeds (1/2)^10", res.OutputRange())
	}
	if !res.Valid() {
		t.Error("validity violated")
	}
	if len(res.FaultFree) != n {
		t.Errorf("fault-free = %v", res.FaultFree)
	}
}

func TestEngineDACWithCrashes(t *testing.T) {
	n := 7 // f = 3 allowed; crash 3 nodes
	cfg := Config{
		N:     n,
		F:     3,
		Procs: dacProcs(t, n, 10, spread(n)),
		Crashes: fault.Schedule{
			0: fault.CrashAt(2),
			3: fault.CrashSilent(4),
			6: fault.CrashPartial(1, 2, 4),
		},
		Adversary: adversary.NewComplete(),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("crash run did not decide")
	}
	if !res.Valid() {
		t.Error("validity violated under crashes")
	}
	if !res.EpsAgreement(1e-3) {
		t.Errorf("ε-agreement violated: range %g", res.OutputRange())
	}
	for _, ff := range res.FaultFree {
		if ff == 0 || ff == 3 || ff == 6 {
			t.Errorf("crashed node %d listed fault-free", ff)
		}
	}
}

func TestEngineCrashRoundSemantics(t *testing.T) {
	// Node 0 crashes in round 0 with delivery restricted to node 1 on a
	// complete graph: node 1 must count it, node 2 must not.
	n := 3
	procs := dacProcs(t, n, 1, []float64{0, 0.5, 1})
	cfg := Config{
		N:         n,
		F:         1,
		Procs:     procs,
		Crashes:   fault.Schedule{0: fault.CrashPartial(0, 1)},
		Adversary: adversary.NewComplete(),
		MaxRounds: 1,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	// After round 0: node 1 heard node 0 (value 0) and node 2 (value 1)
	// → quorum 2 reached on first delivery (port order: node 0 first):
	// {0.5, 0} → v = 0.25, phase 1.
	if got := procs[1].Phase(); got != 1 {
		t.Errorf("node 1 phase = %d, want 1", got)
	}
	if got := procs[1].Value(); got != 0.25 {
		t.Errorf("node 1 value = %g, want 0.25 (heard crashing node first)", got)
	}
	// Node 2 heard only node 1 (0.5): quorum 2 = self + node1 → phase 1,
	// v = (0.5+1)/2 = 0.75 — it must NOT have heard node 0.
	if got := procs[2].Value(); got != 0.75 {
		t.Errorf("node 2 value = %g, want 0.75 (crash partial leaked?)", got)
	}
	// The crashed node receives nothing in its crash round and stays put.
	if got := procs[0].Phase(); got != 0 {
		t.Errorf("crashed node phase = %d, want 0", got)
	}
}

func TestEngineDACSplitNeverDecides(t *testing.T) {
	// Theorem 9 shape: halves split, below-threshold degree → DAC can
	// never assemble a quorum and must not decide within any budget.
	n := 6
	halves, err := adversary.NewHalves(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 5, spread(n)),
		Adversary: halves,
		MaxRounds: 300,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.Decided {
		t.Error("DAC decided under a sub-threshold split adversary")
	}
	if res.Rounds != 300 {
		t.Errorf("rounds = %d, want the full 300 budget", res.Rounds)
	}
	if !math.IsInf(res.OutputRange(), 1) {
		t.Error("output range should be +Inf when nodes are undecided")
	}
}

func TestEngineDBACWithByzantine(t *testing.T) {
	n, f := 11, 2
	byz := map[int]fault.Strategy{
		4: fault.Equivocator{Low: 0, High: 1},
		9: fault.Extremist{Value: 1},
	}
	cfg := Config{
		N:         n,
		F:         f,
		Procs:     dbacProcs(t, n, f, 12, spread(n), byz),
		Byzantine: byz,
		Adversary: adversary.NewComplete(),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("DBAC did not decide under Byzantine attack")
	}
	if !res.Valid() {
		t.Errorf("validity violated: outputs %v", res.Outputs)
	}
	if res.OutputRange() > 0.01 {
		t.Errorf("range %g too wide after 12 phases", res.OutputRange())
	}
	// Byzantine nodes never appear in outputs or fault-free set.
	if _, ok := res.Outputs[4]; ok {
		t.Error("Byzantine node has an output")
	}
	for _, ff := range res.FaultFree {
		if ff == 4 || ff == 9 {
			t.Error("Byzantine node listed fault-free")
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	n := 5
	good := func() Config {
		return Config{
			N:         n,
			Procs:     dacProcs(t, n, 3, spread(n)),
			Adversary: adversary.NewComplete(),
		}
	}
	if _, err := NewEngine(good()); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	c := good()
	c.Adversary = nil
	if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
		t.Error("nil adversary accepted")
	}

	c = good()
	c.Procs = c.Procs[:3]
	if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
		t.Error("short procs accepted")
	}

	c = good()
	c.Procs[2] = nil
	if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
		t.Error("nil proc without Byzantine accepted")
	}

	c = good()
	c.Byzantine = map[int]fault.Strategy{2: fault.Silent{}}
	if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
		t.Error("Byzantine node with a Process accepted")
	}

	c = good()
	c.Byzantine = map[int]fault.Strategy{2: fault.Silent{}}
	c.Procs[2] = nil
	c.Crashes = fault.Schedule{2: fault.CrashAt(0)}
	if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
		t.Error("node both Byzantine and crashed accepted")
	}

	c = good()
	c.F = 1
	c.Crashes = fault.Schedule{0: fault.CrashAt(0), 1: fault.CrashAt(0)}
	if _, err := NewEngine(c); err == nil {
		t.Error("crashes exceeding f accepted")
	}
}

// TestEngineRejectsNoFaultFreeNode: a configuration in which every node
// is crash-scheduled or Byzantine has an empty H, so "every fault-free
// node decided" holds before round 0 and Run would report a decided run
// of zero rounds, however late the crashes.
func TestEngineRejectsNoFaultFreeNode(t *testing.T) {
	const n = 3
	for name, c := range map[string]Config{
		"crashed": {
			N: n, Procs: dacProcs(t, n, 3, spread(n)), Adversary: adversary.NewComplete(),
			Crashes: fault.Schedule{0: fault.CrashAt(5), 1: fault.CrashAt(5), 2: fault.CrashAt(5)},
		},
		"mixed": {
			N: n, Procs: []core.Process{nil, dacProcs(t, n, 3, spread(n))[1], nil}, Adversary: adversary.NewComplete(),
			Byzantine: map[int]fault.Strategy{0: fault.Silent{}, 2: fault.Silent{}},
			Crashes:   fault.Schedule{1: fault.CrashAt(5)},
		},
	} {
		if _, err := NewEngine(c); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: no fault-free node accepted (err %v)", name, err)
		}
	}
}

func TestEnginePortNumberingInvariance(t *testing.T) {
	// Port numberings are local and arbitrary (§II-A): exact outputs may
	// shift (a numbering permutes delivery order, and DAC advances
	// mid-round on quorum), but every correctness property must hold
	// under every numbering.
	n := 7
	eps := math.Pow(0.5, 8)
	for seed := int64(0); seed < 8; seed++ {
		var ports network.Ports
		if seed > 0 {
			ports = network.RandomPorts(n, newRand(seed))
		}
		cfg := Config{
			N:         n,
			Procs:     dacProcs(t, n, 8, spread(n)),
			Adversary: adversary.NewComplete(),
			Ports:     ports,
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.Decided {
			t.Fatalf("seed %d: undecided", seed)
		}
		if !res.Valid() {
			t.Errorf("seed %d: validity violated", seed)
		}
		if !res.EpsAgreement(eps) {
			t.Errorf("seed %d: range %g > %g", seed, res.OutputRange(), eps)
		}
		if res.Rounds != 8 {
			t.Errorf("seed %d: rounds = %d, want 8 (complete graph, one phase/round)", seed, res.Rounds)
		}
	}
}

func TestEngineMessageAccounting(t *testing.T) {
	n := 4
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 2, spread(n)),
		Adversary: adversary.NewStatic("ring", network.Ring(n)),
		MaxRounds: 3,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunRounds(3)
	// Ring: n delivered per round; n(n-1) − n = n(n−2) suppressed.
	wantDelivered := 3 * n
	if res.MessagesDelivered != wantDelivered {
		t.Errorf("delivered = %d, want %d", res.MessagesDelivered, wantDelivered)
	}
	wantLost := 3 * n * (n - 2)
	if res.MessagesLost != wantLost {
		t.Errorf("lost = %d, want %d", res.MessagesLost, wantLost)
	}
}

// TestEngineMessageAccountingUnderCrash pins MessagesLost under a crash
// schedule: a missing link toward a node that cannot receive in round t
// (its crash round or later) is not adversary suppression. Ring on n=4
// with node 2 crashing cleanly at round 1, over rounds t=0..3:
//
//	t=0: every node sends, every node receives — 4×(3−1) = 8 lost
//	t=1: node 2 still sends but no longer receives — 6 lost
//	t≥2: senders {0,1,3} toward receivers {0,1,3} — 4 lost per round
//
// The former accounting charged N−1−OutDegree regardless of receiver
// state (28 over the same rounds).
func TestEngineMessageAccountingUnderCrash(t *testing.T) {
	n := 4
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 8, spread(n)),
		Adversary: adversary.NewStatic("ring", network.Ring(n)),
		Crashes:   fault.Schedule{2: fault.CrashAt(1)},
		MaxRounds: 8,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunRounds(4)
	if want := 8 + 6 + 4 + 4; res.MessagesLost != want {
		t.Errorf("lost = %d, want %d", res.MessagesLost, want)
	}
	// Deliveries shrink in step: 4 (all edges), then 3 (2→3 still
	// carries the final broadcast), then 2 per round.
	if want := 4 + 3 + 2 + 2; res.MessagesDelivered != want {
		t.Errorf("delivered = %d, want %d", res.MessagesDelivered, want)
	}
}

func TestEngineBandwidthAccounting(t *testing.T) {
	n := 4
	cfg := Config{
		N:                n,
		Procs:            dacProcs(t, n, 2, spread(n)),
		Adversary:        adversary.NewComplete(),
		AccountBandwidth: true,
		MaxRounds:        2,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunRounds(2)
	if res.BytesDelivered <= 0 {
		t.Error("no bytes accounted")
	}
	// Plain DAC messages are tiny: ≤ 8 bytes each at these magnitudes.
	if res.BytesDelivered > res.MessagesDelivered*8 {
		t.Errorf("bytes/message = %g implausibly large",
			float64(res.BytesDelivered)/float64(res.MessagesDelivered))
	}
}

func TestEngineKeepTrace(t *testing.T) {
	n := 5
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 3, spread(n)),
		Adversary: adversary.NewComplete(),
		KeepTrace: true,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if len(res.Trace) != res.Rounds {
		t.Fatalf("trace length %d != rounds %d", len(res.Trace), res.Rounds)
	}
	if network.MaxDynaDegree(res.Trace, res.FaultFree, 1) < n-1 {
		t.Error("complete-graph trace should satisfy (1, n−1)")
	}
}

func TestEngineMaxRoundsDefault(t *testing.T) {
	cfg := Config{
		N:         2,
		Procs:     dacProcs(t, 2, 1, []float64{0, 1}),
		Adversary: adversary.NewStatic("empty", network.NewEdgeSet(2)),
		MaxRounds: 50,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.Decided {
		t.Error("decided with no communication and quorum 2")
	}
	if res.Rounds != 50 {
		t.Errorf("rounds = %d, want 50", res.Rounds)
	}
}
