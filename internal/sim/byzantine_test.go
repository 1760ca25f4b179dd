package sim

import (
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// perReceiverProbe is a Byzantine strategy that records exactly which
// receivers were offered messages, to verify the engine's intersection
// of Byzantine output with the adversary's edge set.
type perReceiverProbe struct {
	offered map[int]int // receiver → count
}

func (p *perReceiverProbe) Name() string { return "probe" }

func (p *perReceiverProbe) MessagesInto(round, self int, view fault.View, msgs []core.Message, out []*core.Message) {
	msgs[0] = core.Message{Value: 0.5, Phase: 1 << 20}
	for i := range out {
		if i == self {
			out[i] = nil
			continue
		}
		out[i] = &msgs[0]
		p.offered[i]++
	}
}

func (p *perReceiverProbe) Messages(round, self int, view fault.View) []*core.Message {
	msgs, out := make([]core.Message, view.N()), make([]*core.Message, view.N())
	p.MessagesInto(round, self, view, msgs, out)
	return out
}

// countingProc counts deliveries per port; a minimal Process.
type countingProc struct {
	n        int
	perPort  []int
	received int
}

func newCountingProc(n int) *countingProc { return &countingProc{n: n, perPort: make([]int, n)} }

func (c *countingProc) Broadcast() core.Message { return core.Message{Value: 0.5} }
func (c *countingProc) DeliverAll(ds []core.Delivery) {
	for _, d := range ds {
		c.perPort[d.Port]++
		c.received++
	}
}
func (c *countingProc) EndRound()               {}
func (c *countingProc) Output() (float64, bool) { return 0, false }
func (c *countingProc) Phase() int              { return 0 }
func (c *countingProc) Value() float64          { return 0.5 }
func (c *countingProc) Reinit(float64)          { clear(c.perPort); c.received = 0 }

func TestByzantineMessagesRespectEdgeSet(t *testing.T) {
	// Byzantine node 0 offers messages to everyone, but the adversary's
	// graph is a ring: only 0→1 exists, so only node 1 may receive it.
	n := 4
	probe := &perReceiverProbe{offered: make(map[int]int)}
	procs := make([]core.Process, n)
	counters := make([]*countingProc, n)
	for i := 1; i < n; i++ {
		counters[i] = newCountingProc(n)
		procs[i] = counters[i]
	}
	cfg := Config{
		N:         n,
		F:         1,
		Procs:     procs,
		Byzantine: map[int]fault.Strategy{0: probe},
		Adversary: adversary.NewStatic("ring", network.Ring(n)),
		MaxRounds: 3,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(3)
	// Node 1 heard node 0 (port 0) every round; nobody else did.
	if got := counters[1].perPort[0]; got != 3 {
		t.Errorf("node 1 received %d messages from the Byzantine node, want 3", got)
	}
	for i := 2; i < n; i++ {
		if counters[i].perPort[0] != 0 {
			t.Errorf("node %d received Byzantine messages without a link", i)
		}
	}
	// The strategy offered to everyone regardless — the engine must not
	// leak those offers past E(t).
	if probe.offered[2] != 3 {
		t.Errorf("probe bookkeeping broken: %v", probe.offered)
	}
}

func TestByzantineNilEntriesSilent(t *testing.T) {
	n := 3
	procs := make([]core.Process, n)
	counters := make([]*countingProc, n)
	for i := 1; i < n; i++ {
		counters[i] = newCountingProc(n)
		procs[i] = counters[i]
	}
	cfg := Config{
		N:         n,
		F:         1,
		Procs:     procs,
		Byzantine: map[int]fault.Strategy{0: fault.Silent{}},
		Adversary: adversary.NewComplete(),
		MaxRounds: 2,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(2)
	for i := 1; i < n; i++ {
		if counters[i].perPort[0] != 0 {
			t.Errorf("node %d heard a silent Byzantine node", i)
		}
	}
	// The fault-free nodes still hear each other.
	if counters[1].perPort[2] != 2 || counters[2].perPort[1] != 2 {
		t.Error("fault-free traffic disturbed")
	}
}

func TestViewExposesFlags(t *testing.T) {
	// An adaptive adversary must see Crashed/Byzantine flags and
	// current values.
	n := 4
	var sawByz, sawCrash bool
	spy := adversaryFunc(func(round int, view adversary.View) *network.EdgeSet {
		if view.Snapshot(0).Byzantine {
			sawByz = true
		}
		if round >= 2 && view.Snapshot(1).Crashed {
			sawCrash = true
		}
		return network.Complete(n)
	})
	procs := make([]core.Process, n)
	for i := 1; i < n; i++ {
		d, err := core.NewDACPhases(n, i, 50, float64(i)/3)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	cfg := Config{
		N:         n,
		F:         2,
		Procs:     procs,
		Byzantine: map[int]fault.Strategy{0: fault.Silent{}},
		Crashes:   fault.Schedule{1: fault.CrashAt(1)},
		Adversary: spy,
		MaxRounds: 4,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRounds(4)
	if !sawByz {
		t.Error("adversary never saw the Byzantine flag")
	}
	if !sawCrash {
		t.Error("adversary never saw the crash flag")
	}
}

// adversaryFunc adapts a function to the Adversary interface.
type adversaryFunc func(round int, view adversary.View) *network.EdgeSet

func (adversaryFunc) Name() string { return "func" }
func (f adversaryFunc) Edges(t int, view adversary.View) *network.EdgeSet {
	return f(t, view)
}

func TestRecorderEventStream(t *testing.T) {
	n := 3
	rec := trace.NewRecorder()
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 2, []float64{0, 0.5, 1}),
		Adversary: adversary.NewComplete(),
		Hooks:     Hooks{Recorder: rec},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("undecided")
	}
	counts := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	if counts[trace.KindRound] != res.Rounds {
		t.Errorf("round events = %d, want %d", counts[trace.KindRound], res.Rounds)
	}
	if counts[trace.KindBroadcast] != res.Rounds*n {
		t.Errorf("broadcast events = %d, want %d", counts[trace.KindBroadcast], res.Rounds*n)
	}
	if counts[trace.KindDeliver] != res.MessagesDelivered {
		t.Errorf("deliver events = %d, want %d", counts[trace.KindDeliver], res.MessagesDelivered)
	}
	if counts[trace.KindDecide] != n {
		t.Errorf("decide events = %d, want %d", counts[trace.KindDecide], n)
	}
	if counts[trace.KindPhase] == 0 {
		t.Error("no phase events recorded")
	}
}

// TestObserverSeesMultiPhaseJump: a DAC jump across several phases must
// surface as one OnPhaseEnter with to−from > 1.
func TestObserverSeesMultiPhaseJump(t *testing.T) {
	n := 5
	// Node 0 starts at phase 0; node 1 is pre-advanced to phase 3 by
	// feeding it quorums outside the engine.
	ahead, err := core.NewDACPhases(n, 1, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		deliverQuorum(ahead, n, p, 0.5)
	}
	if ahead.Phase() != 3 {
		t.Fatalf("setup: phase = %d, want 3", ahead.Phase())
	}
	behind, err := core.NewDACPhases(n, 0, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	obs := newObserverLog()
	procs := make([]core.Process, n)
	procs[0] = behind
	procs[1] = ahead
	for i := 2; i < n; i++ {
		d, err := core.NewDACPhases(n, i, 10, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	cfg := Config{
		N:         n,
		Procs:     procs,
		Adversary: adversary.NewStatic("toZero", linkInto(n, 0, 1)),
		Hooks:     Hooks{Observer: obs},
		MaxRounds: 1,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	// Node 0 heard only node 1 (phase 3): it must have jumped 0→3.
	trs := obs.phases[0]
	if len(trs) != 3 || trs[0] != 0 || trs[1] != 3 {
		t.Errorf("node 0 transitions = %v, want one 0→3 jump", trs)
	}
}

// deliverQuorum walks a DAC node one phase forward with uniform values.
func deliverQuorum(d *core.DAC, n, phase int, v float64) {
	for port := 0; port < n; port++ {
		if d.Phase() != phase {
			return
		}
		d.Deliver(core.Delivery{Port: port, Msg: core.Message{Value: v, Phase: phase}})
	}
}

// linkInto builds a graph with the single link from→to.
func linkInto(n, to, from int) *network.EdgeSet {
	e := network.NewEdgeSet(n)
	e.Add(from, to)
	return e
}

// TestByzantineStrategiesRecycledMatchFresh: every built-in strategy
// fills the storage Reset carved from the engine's flat buffers, and a
// recycled engine must run exactly as a fresh one. Every built-in
// strategy at once (n=16, f=3 rotated through them in pairs), DBAC and
// DBACPiggyback, dense and CSR scratch, with the storage of one run
// serving the next: Results, recorded traces and every node's end state
// must be identical.
func TestByzantineStrategiesRecycledMatchFresh(t *testing.T) {
	const n, f, rounds = 16, 3, 40
	strategies := func(seed int64) []fault.Strategy {
		return []fault.Strategy{
			fault.Silent{},
			fault.Extremist{Value: 1},
			fault.Equivocator{Low: 0, High: 1},
			fault.SplitBrain{InA: func(r int) bool { return r%3 == 0 }, ValueA: 0.2, ValueB: 0.8},
			fault.NewRandomNoise(seed),
			fault.Laggard{Value: 0.4},
			fault.Mimic{Target: 0},
		}
	}
	mkConfig := func(trial int, piggyback, csr bool) Config {
		seed := int64(trial) + 1
		all := strategies(seed)
		byz := map[int]fault.Strategy{}
		for k := 0; k < f; k++ {
			byz[n/2+k] = all[(trial+k)%len(all)]
		}
		procs := dbacProcs(t, n, f, 1<<20, spread(n), byz)
		if piggyback {
			for i := range procs {
				if procs[i] == nil {
					continue
				}
				pb, err := core.NewDBACPiggybackPhases(n, f, i, 2, 1<<20, spread(n)[i])
				if err != nil {
					t.Fatal(err)
				}
				procs[i] = pb
			}
		}
		adv, err := adversary.NewRandomDegree(3, core.ByzDegree(n, f), 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N: n, F: f, Procs: procs, Byzantine: byz, Adversary: adv,
			MaxRounds: 1 << 20, KeepTrace: true, AccountBandwidth: trial%2 == 0, ForceCSR: csr,
		}
	}
	for _, piggyback := range []bool{false, true} {
		for _, csr := range []bool{false, true} {
			var recycled *Engine
			for trial := 0; trial < 7; trial++ {
				fresh, err := NewEngine(mkConfig(trial, piggyback, csr))
				if err != nil {
					t.Fatal(err)
				}
				if recycled == nil {
					recycled, err = NewEngine(mkConfig(trial, piggyback, csr))
				} else {
					err = recycled.Reset(mkConfig(trial, piggyback, csr))
				}
				if err != nil {
					t.Fatal(err)
				}
				want, got := fresh.RunRounds(rounds), recycled.RunRounds(rounds)
				assertEqualResults(t, want, got, "pb=%v csr=%v trial %d", piggyback, csr, trial)
				assertEqualStates(t, fresh, recycled, "pb=%v csr=%v trial %d", piggyback, csr, trial)
			}
		}
	}
}
