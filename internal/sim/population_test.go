package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/analysis"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// popCase is one draw of TestPopulationMatchesAdapterProperty: a DAC
// network, its graph family and faults, what watches it, and how many
// rounds RunRounds plays past Run's decision.
type popCase struct {
	n, pEnd, extra int
	maxRounds      int
	noJump         bool
	adv            string // "er2", "rotating" or "complete"
	degree         int    // the rotating graph's in-degree: a few, or ⌊n/2⌋
	seed           int64
	crashes        fault.Schedule
	randomPorts    bool
	shuffle        bool
	forceCSR       bool
	series         bool
	tracker        bool
	recorder       bool
}

func (c popCase) String() string {
	return fmt.Sprintf("n=%d/%s/pEnd=%d/noJump=%v/crashes=%d/ports=%v/shuffle=%v/csr=%v/series=%v/tracker=%v/recorder=%v",
		c.n, c.adv, c.pEnd, c.noJump, len(c.crashes), c.randomPorts, c.shuffle, c.forceCSR, c.series, c.tracker, c.recorder)
}

// popRun is one engine over a fresh NewDACPopulation network of c, with
// its own adversary and watchers.
type popRun struct {
	eng      *Engine
	series   *analysis.RangeSeries
	tracker  *analysis.PhaseTracker
	recorder *trace.Recorder
}

// newPopRun builds c's run; asPopulation drives the nodes through
// core.PopulationOf, otherwise through the core.PerNode adapter over the
// same kind of nodes.
func newPopRun(t *testing.T, c popCase, asPopulation bool) *popRun {
	t.Helper()
	var ports network.Ports
	selfPort := func(i int) int { return i }
	if c.randomPorts {
		ports = network.RandomPorts(c.n, newRand(c.seed))
		selfPort = func(i int) int { return ports[i].Port(i) }
	}
	inputs := make([]float64, c.n)
	rng := rand.New(rand.NewSource(c.seed))
	for i := range inputs {
		inputs[i] = rng.Float64()
	}
	dacs := must(core.NewDACPopulation(c.pEnd, core.CrashQuorum(c.n), c.noJump, selfPort, inputs, nil))
	procs := make([]core.Process, c.n)
	for i := range procs {
		procs[i] = &dacs[i]
	}
	var adv adversary.Adversary
	switch c.adv {
	case "er2":
		p := 8.0 / float64(c.n)
		if c.n > 1000 {
			p = 0.02 // a phase every few rounds, not every ~n/16
		}
		adv = must(adversary.NewSparseProbabilistic(p, c.seed))
	case "rotating":
		adv = must(adversary.NewRotating(c.degree))
	default:
		adv = adversary.NewComplete()
	}
	r := &popRun{}
	cfg := Config{
		N: c.n, F: len(c.crashes), Procs: procs, Adversary: adv, Crashes: c.crashes, Ports: ports,
		MaxRounds: c.maxRounds, ShuffleDelivery: c.shuffle, ShuffleSeed: c.seed, ForceCSR: c.forceCSR,
	}
	if c.series {
		r.series = analysis.NewRangeSeries()
		cfg.Hooks.Metrics = r.series
	}
	if c.tracker {
		r.tracker = analysis.NewPhaseTracker()
		for i, in := range inputs {
			r.tracker.SetInput(i, in)
		}
		cfg.Hooks.Observer = r.tracker
	}
	if c.recorder {
		r.recorder = trace.NewRecorder()
		cfg.Hooks.Recorder = r.recorder
	}
	r.eng = new(Engine)
	var err error
	if asPopulation {
		err = r.eng.ResetPopulation(cfg, core.PopulationOf(dacs))
	} else {
		err = r.eng.Reset(cfg)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return r
}

// TestPopulationMatchesAdapterProperty: a DAC network driven through
// core.PopulationOf — whose by-row rounds hand each receiver's sending
// in-neighbours to DeliverRow, which reads the senders' start-of-round
// table — and the same network driven through the core.PerNode adapter
// give deep-equal Results from Run and from RunRounds past the
// decision, the same end states, and the same series, phase tracker and
// event log. Sizes straddle network.SparseThreshold (and force CSR
// below it) on er2, rotating and complete graphs, with crash schedules
// (silent and partial DeliverTo lists included), random ports and
// shuffled delivery. Both by-row arms must be drawn often: CSR rows, as
// one DeliverCSR call a round, and dense bitmap rows, the latter also
// after a silent crash, when a dense round lists only the senders still
// alive. So must the word round (dense rows at n ≤ 64), also after a
// silent crash. PerNode takes the word round and the CSR call too, so
// there the two sides share the engine's arm: runs small enough for the
// O(n²)-a-round reference oracle also meet it, which holds every such
// trial to an independent fold and pins the by-row arms' lost counts.
// DBAC networks with Byzantine senders follow (checkByzPopulations), in
// Byzantine word rounds and per receiver.
func TestPopulationMatchesAdapterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	csrRows, denseRows, silentDenseRows := 0, 0, 0
	wordRounds, silentWordRounds, csrCalls := 0, 0, 0 // checked against the oracle
	for trial := 0; trial < 48; trial++ {
		c := popCase{
			n:         []int{9, 33, 70, 130, 9, 33, 70, network.SparseThreshold + 1}[rng.Intn(8)],
			pEnd:      2 + rng.Intn(4),
			extra:     3 + rng.Intn(12),
			maxRounds: 150,
			adv:       []string{"er2", "rotating", "complete"}[rng.Intn(3)],
			seed:      rng.Int63(),
		}
		c.degree = []int{1 + rng.Intn(4), c.n / 2}[rng.Intn(2)]
		c.noJump = rng.Intn(4) == 0
		c.forceCSR = rng.Intn(3) > 0
		c.randomPorts = rng.Intn(5) == 0
		c.shuffle = rng.Intn(5) == 0
		c.series, c.tracker, c.recorder = rng.Intn(2) == 0, rng.Intn(5) == 0, rng.Intn(5) == 0
		if c.n > network.SparseThreshold {
			// Bound the work to a few sparse rounds with identity ports:
			// random ones are n² entries here, and the complete graph
			// would deliver 4M messages a round, on the dense arm
			// (FillComplete). The smaller draws cover both.
			c.pEnd, c.extra, c.maxRounds, c.recorder = 2, 2, 8, false
			c.degree, c.randomPorts = 64, false
			if c.adv == "complete" {
				c.adv = "rotating"
			}
		}
		if rng.Intn(3) > 0 {
			// Fewer than half crash, so a quorum of the living still forms.
			c.crashes = fault.Schedule{}
			for k := rng.Intn(c.n/3 + 1); k > 0; k-- {
				node, round := rng.Intn(c.n), rng.Intn(8)
				switch rng.Intn(3) {
				case 0:
					c.crashes[node] = fault.CrashAt(round)
				case 1:
					c.crashes[node] = fault.CrashSilent(round)
				default:
					c.crashes[node] = fault.CrashPartial(round, rng.Intn(c.n), rng.Intn(c.n))
				}
			}
			if len(c.crashes) == 0 {
				c.crashes = nil
			}
		}
		// A run with identity ports, no shuffle and no per-delivery
		// watcher goes by row in every round no sender crashes partially
		// in: on CSR rows, or on dense ones under FillComplete or below
		// the threshold, and those in word rounds at n ≤ 64. Its CSR
		// rounds are one DeliverCSR call each: er2 and rotating render in
		// place, so a run with crashes prunes every CSR round's set.
		byRow := !c.randomPorts && !c.shuffle && !c.tracker && !c.recorder
		if byRow {
			switch {
			case c.adv != "complete" && (c.forceCSR || c.n >= network.SparseThreshold):
				csrRows++
			case hasSilentCrash(c.crashes):
				denseRows++
				silentDenseRows++
			default:
				denseRows++
			}
		}
		words := byRow && c.n <= 64 && (c.adv == "complete" || !c.forceCSR)
		pop, per := newPopRun(t, c, true), newPopRun(t, c, false)
		assertEqualResults(t, per.eng.Run(), pop.eng.Run(), "%v: Run", c)
		assertEqualResults(t, per.eng.RunRounds(c.extra), pop.eng.RunRounds(c.extra), "%v: RunRounds past the decision", c)
		for i := 0; i < c.n; i++ {
			if a, b := core.Snap(pop.eng.pop, i), core.Snap(per.eng.pop, i); a != b {
				t.Fatalf("%v: node %d ends at %+v through the population, %+v through the adapter", c, i, a, b)
			}
		}
		if c.series && !reflect.DeepEqual(pop.series.Series(), per.series.Series()) {
			t.Fatalf("%v: series %v, adapter %v", c, pop.series.Series(), per.series.Series())
		}
		if c.tracker && !reflect.DeepEqual(pop.tracker, per.tracker) {
			t.Fatalf("%v: phase trackers differ", c)
		}
		if c.recorder && !reflect.DeepEqual(pop.recorder.Events(), per.recorder.Events()) {
			t.Fatalf("%v: event logs differ", c)
		}
		if c.n <= 130 {
			ref := newPopRun(t, c, false)
			referenceRun(ref.eng)
			assertEqualResults(t, referenceRunRounds(ref.eng, c.extra), pop.eng.RunRounds(0), "%v: reference oracle", c)
			if words {
				wordRounds++
				if hasSilentCrash(c.crashes) {
					silentWordRounds++
				}
			}
			if byRow && c.adv != "complete" && c.forceCSR {
				csrCalls++
			}
		}
	}
	if csrRows < 8 || denseRows < 8 || silentDenseRows < 2 {
		t.Errorf("%d trials could deliver off CSR rows and %d off dense ones (%d after a silent crash): property nearly vacuous",
			csrRows, denseRows, silentDenseRows)
	}
	if wordRounds < 8 || silentWordRounds < 2 || csrCalls < 8 {
		t.Errorf("%d trials met the oracle in word rounds (%d after a silent crash), %d in DeliverCSR calls: property nearly vacuous",
			wordRounds, silentWordRounds, csrCalls)
	}
	t.Logf("by-row trials: %d CSR, %d dense (%d after a silent crash); met the oracle: %d in word rounds (%d after a silent crash), %d in DeliverCSR calls",
		csrRows, denseRows, silentDenseRows, wordRounds, silentWordRounds, csrCalls)
	checkByzPopulations(t)
}

// hasSilentCrash reports whether s holds a crash that sends nothing in
// its crash round.
func hasSilentCrash(s fault.Schedule) bool {
	for _, c := range s {
		if c.DeliverTo != nil && len(c.DeliverTo) == 0 {
			return true
		}
	}
	return false
}

// byzCase is one DBAC draw of TestPopulationMatchesAdapterProperty: n
// nodes tolerating f Byzantine ones, f of them running the strategy
// kind names, on a graph family, with crashes and watchers.
type byzCase struct {
	n, f, pEnd, extra int
	strategy          string // "equivocate", "split", "extremist", "laggard", "mute" or "noise"
	adv               string // "complete", "er" or "byzdeg"
	seed              int64
	crashes           fault.Schedule
	randomPorts       bool
	shuffle           bool
	tracker           bool
}

func (c byzCase) String() string {
	return fmt.Sprintf("n=%d/f=%d/%s/%s/pEnd=%d/crashes=%d/ports=%v/shuffle=%v/tracker=%v",
		c.n, c.f, c.strategy, c.adv, c.pEnd, len(c.crashes), c.randomPorts, c.shuffle, c.tracker)
}

// newByzRun builds c's run: its honest nodes one NewDBACPopulation
// network driven through core.DBACPopulationOf, or per-node DBACs
// through core.PerNode; the Byzantine ones (IDs n/2…, where the spec
// layer puts them) with fresh strategies.
func newByzRun(t *testing.T, c byzCase, asPopulation bool) *Engine {
	t.Helper()
	var ports network.Ports
	selfPort := func(i int) int { return i }
	if c.randomPorts {
		ports = network.RandomPorts(c.n, newRand(c.seed))
		selfPort = func(i int) int { return ports[i].Port(i) }
	}
	byz := map[int]fault.Strategy{}
	for id := c.n / 2; id < c.n/2+c.f; id++ {
		switch c.strategy {
		case "equivocate":
			byz[id] = fault.Equivocator{Low: 0, High: 1}
		case "split":
			byz[id] = fault.SplitBrain{InA: func(r int) bool { return r%3 == 0 }, ValueA: 0.25, ValueB: 0.75}
		case "extremist":
			byz[id] = fault.Extremist{Value: 1}
		case "laggard":
			byz[id] = fault.Laggard{Value: 0.5}
		case "mute":
			byz[id] = halfMute{}
		default:
			byz[id] = fault.NewRandomNoise(c.seed + int64(id))
		}
	}
	skip := func(i int) bool { _, ok := byz[i]; return ok }
	inputs := make([]float64, c.n)
	rng := rand.New(rand.NewSource(c.seed))
	for i := range inputs {
		inputs[i] = rng.Float64()
	}
	procs := make([]core.Process, c.n)
	var pop core.Population
	if asPopulation {
		dbacs := must(core.NewDBACPopulation(c.f, c.pEnd, core.ByzQuorum(c.n, c.f), selfPort, inputs, skip))
		for i := range procs {
			if !skip(i) {
				procs[i] = &dbacs[i]
			}
		}
		pop = core.DBACPopulationOf(dbacs)
	} else {
		for i := range procs {
			if !skip(i) {
				procs[i] = must(core.NewDBACPhases(c.n, c.f, selfPort(i), c.pEnd, inputs[i]))
			}
		}
		pop = core.PerNode(procs)
	}
	var adv adversary.Adversary
	switch c.adv {
	case "er":
		adv = must(adversary.NewProbabilistic(0.8, c.seed))
	case "byzdeg":
		adv = must(adversary.NewRandomDegree(3, core.ByzDegree(c.n, c.f), 0.05, c.seed))
	default:
		adv = adversary.NewComplete()
	}
	cfg := Config{
		N: c.n, F: c.f + len(c.crashes), Procs: procs, Adversary: adv, Crashes: c.crashes, Byzantine: byz,
		Ports: ports, MaxRounds: 400, ShuffleDelivery: c.shuffle, ShuffleSeed: c.seed,
	}
	if c.tracker {
		tracker := analysis.NewPhaseTracker()
		for i, in := range inputs {
			if !skip(i) {
				tracker.SetInput(i, in)
			}
		}
		cfg.Hooks.Observer = tracker
	}
	eng := new(Engine)
	if err := eng.ResetPopulation(cfg, pop); err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return eng
}

// checkByzPopulations is TestPopulationMatchesAdapterProperty for DBAC
// networks with Byzantine senders: driven through core.DBACPopulationOf
// and through core.PerNode they give deep-equal Results from Run and
// from RunRounds past the decision, and meet the reference oracle. Runs
// with identity ports, no shuffle, no phase tracker and no partial
// crash go by word in every round (Byzantine senders included, at n ≤
// 64); the others gather per receiver. Both must be drawn often, the
// word rounds also after a silent crash.
func checkByzPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	words, silentWords, gathered := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		n := []int{6, 11, 16, 31, 51, 64}[rng.Intn(6)]
		c := byzCase{
			n: n, f: 1 + rng.Intn((n-1)/5), pEnd: 2 + rng.Intn(4), extra: 2 + rng.Intn(6),
			strategy: []string{"equivocate", "split", "extremist", "laggard", "mute", "noise"}[rng.Intn(6)],
			adv:      []string{"complete", "er", "byzdeg"}[rng.Intn(3)],
			seed:     rng.Int63(),
		}
		c.randomPorts, c.shuffle, c.tracker = rng.Intn(6) == 0, rng.Intn(6) == 0, rng.Intn(6) == 0
		if rng.Intn(3) > 0 {
			// Honest crashes, below the Byzantine nodes' IDs, within the
			// slack a quorum leaves (past it, the run never decides).
			c.crashes = fault.Schedule{}
			for k := 1 + rng.Intn(max(1, n-c.f-core.ByzQuorum(n, c.f))); k > 0; k-- {
				node, round := rng.Intn(n/2), rng.Intn(8)
				if rng.Intn(8) == 0 {
					c.crashes[node] = fault.CrashPartial(round, rng.Intn(n))
				} else {
					c.crashes[node] = fault.CrashSilent(round)
				}
			}
		}
		pop, per, ref := newByzRun(t, c, true), newByzRun(t, c, false), newByzRun(t, c, false)
		assertEqualResults(t, per.Run(), pop.Run(), "%v: Run", c)
		assertEqualResults(t, per.RunRounds(c.extra), pop.RunRounds(c.extra), "%v: RunRounds past the decision", c)
		referenceRun(ref)
		assertEqualResults(t, referenceRunRounds(ref, c.extra), pop.RunRounds(0), "%v: reference oracle", c)
		switch {
		case !c.randomPorts && !c.shuffle && !c.tracker && !hasPartialCrash(c.crashes):
			words++
			if hasSilentCrash(c.crashes) {
				silentWords++
			}
		default:
			gathered++
		}
	}
	if words < 15 || silentWords < 3 || gathered < 8 {
		t.Errorf("%d trials met the oracle in Byzantine word rounds (%d after a silent crash), %d per receiver: property nearly vacuous",
			words, silentWords, gathered)
	}
	t.Logf("met the oracle: %d in Byzantine word rounds (%d after a silent crash), %d per receiver", words, silentWords, gathered)
}

// hasPartialCrash reports whether s holds a crash that delivers to some
// nodes, not all or none, in its crash round.
func hasPartialCrash(s fault.Schedule) bool {
	for _, c := range s {
		if len(c.DeliverTo) > 0 {
			return true
		}
	}
	return false
}

// halfMute is a Byzantine node heard by every receiver it has a link
// to, but silent towards the odd ones: the even ones get ⟨0.5, far
// future⟩. The silent links count as heard, not delivered.
type halfMute struct{}

func (halfMute) Name() string { return "half-mute" }

func (halfMute) MessagesInto(_, _ int, _ fault.View, msgs []core.Message, out []*core.Message) {
	msgs[0] = core.Message{Value: 0.5, Phase: 1 << 40}
	for i := range out {
		out[i] = nil
		if i%2 == 0 {
			out[i] = &msgs[0]
		}
	}
}

func (m halfMute) Messages(round, self int, view fault.View) []*core.Message {
	msgs, out := make([]core.Message, view.N()), make([]*core.Message, view.N())
	m.MessagesInto(round, self, view, msgs, out)
	return out
}
