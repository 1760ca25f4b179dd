package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/network"
	"anondyn/internal/sim"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the index of the enclosing span (−1 at
// the root); spans of one rep share Rep.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls and Edges are set on aggregated spans: one span standing for
	// Calls back-to-back calls whose durations were summed (a round's
	// DeliverAll calls), and the messages the round delivered.
	Calls int `json:"calls,omitempty"`
	Edges int `json:"edges,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. Every span is
// recorded on the benchmark's goroutine — the layers under test run
// their own pools, but the benchmark calls into them from one place —
// so there is no locking. A nil tracer records nothing: the untraced
// reps run the same code with tr == nil.
type tracer struct {
	epoch time.Time
	rep   int
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, StartNs: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.endAt(id, t.now())
}

// endAt closes a span at a time read earlier, so that recording its
// children does not count towards it.
func (t *tracer) endAt(id int, now int64) {
	t.spans[id].EndNs = now
	t.open = t.open[:len(t.open)-1]
}

// child records an already-measured interval under the innermost open
// span.
func (t *tracer) child(name string, start, end int64, calls, edges int) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, StartNs: start, EndNs: end, Calls: calls, Edges: edges})
}

// total sums the durations (and edges) of every span with the name.
func (t *tracer) total(name string) (d time.Duration, edges int) {
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			edges += s.Edges
		}
	}
	return d, edges
}

// childTime sums, per parent span of the given name, the durations of
// its direct children.
func (t *tracer) childTime(parentName string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parentName {
			d += s.dur()
		}
	}
	return d
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, h host) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: h, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// sampleEvery is the share of rounds the decorators time: stamping the
// clock around all 16 385 DeliverAll calls of every round costs 1.25–
// 1.7× wall, so one round in eight is timed and the per-edge figures
// are taken over the timed rounds' own edge counts.
const sampleEvery = 8

// stepClock is shared by the decorators of one engine. While armed,
// they time their calls into it; the driver arms it for sampled rounds
// and turns the sums into child spans of the round's step span.
type stepClock struct {
	tr    *tracer
	armed bool

	genStart, genEnd, buildEnd int64
	edges                      int
	deliver                    int64 // summed DeliverAll time
	deliverStart               int64 // first DeliverAll of the round
	deliverCalls               int
	deliveredMsgs              int // messages handed to DeliverAll
}

// timedAdversary wraps an in-place adversary, timing generation and —
// by forcing the first receiver-major read inside the wrapper — the
// edge set's adjacency build. It forwards InPlace, Oblivious and
// Reseeder, so the engine selects the same round path as for the bare
// adversary.
type timedAdversary struct {
	inner adversary.InPlace
	clk   *stepClock
}

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) Edges(t int, view adversary.View) *network.EdgeSet {
	return a.inner.Edges(t, view)
}

func (a *timedAdversary) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	c := a.clk
	if !c.armed {
		a.inner.EdgesInto(t, view, dst)
		return
	}
	c.genStart = c.tr.now()
	a.inner.EdgesInto(t, view, dst)
	c.genEnd = c.tr.now()
	if dst.IsSparse() {
		dst.InCSR()
	}
	c.buildEnd = c.tr.now()
	c.edges = dst.Len()
}

func (a *timedAdversary) Oblivious() bool { return adversary.IsOblivious(a.inner) }

func (a *timedAdversary) Reseed(seed int64) {
	if r, ok := a.inner.(adversary.Reseeder); ok {
		r.Reseed(seed)
	}
}

// timedDAC and timedDBAC wrap one node's process, timing DeliverAll
// while the clock is armed. They embed the concrete pointer, not an
// interface, so every other Process method — and the BulkDeliverer and
// Reinitializer seams the engine and CompiledScenario probe for — is a
// promoted direct call: wrapping costs the engine nothing it could
// mistake for the algorithm's time.
type timedDAC struct {
	*core.DAC
	clk *stepClock
}

func (p *timedDAC) DeliverAll(ds []core.Delivery) {
	if !p.clk.armed {
		p.DAC.DeliverAll(ds)
		return
	}
	start := p.clk.tr.now()
	p.DAC.DeliverAll(ds)
	p.clk.delivered(start, len(ds))
}

type timedDBAC struct {
	*core.DBAC
	clk *stepClock
}

func (p *timedDBAC) DeliverAll(ds []core.Delivery) {
	if !p.clk.armed {
		p.DBAC.DeliverAll(ds)
		return
	}
	start := p.clk.tr.now()
	p.DBAC.DeliverAll(ds)
	p.clk.delivered(start, len(ds))
}

// delivered adds one DeliverAll call that began at start to the round's
// sum.
func (c *stepClock) delivered(start int64, messages int) {
	if c.deliverCalls == 0 {
		c.deliverStart = start
	}
	c.deliver += c.tr.now() - start
	c.deliverCalls++
	c.deliveredMsgs += messages
}

// decoratedConfig assembles the engine configuration Scenario.Run would
// for an identity-port DAC or DBAC scenario, with every process and the
// adversary wrapped in timing decorators.
func decoratedConfig(s anondyn.Scenario, clk *stepClock) (sim.Config, error) {
	ip, ok := s.Adversary.(adversary.InPlace)
	if !ok {
		return sim.Config{}, fmt.Errorf("adversary %s has no in-place path to decorate", s.Adversary.Name())
	}
	// The wrappers sit in one slice, in node order: the engine walks the
	// nodes in order several times a round, and a wrapper per heap object
	// would add a cache miss to each visit.
	procs := make([]core.Process, s.N)
	var (
		dacs  []timedDAC
		dbacs []timedDBAC
		err   error
	)
	switch s.Algorithm {
	case anondyn.AlgoDAC:
		dacs = make([]timedDAC, s.N)
	case anondyn.AlgoDBAC:
		dbacs = make([]timedDBAC, s.N)
	default:
		return sim.Config{}, fmt.Errorf("no decorator for algorithm %s", s.Algorithm)
	}
	for i := range procs {
		if _, byz := s.Byzantine[i]; byz {
			continue
		}
		switch {
		case dacs != nil && s.PEndOverride > 0:
			dacs[i].DAC, err = core.NewDACPhases(s.N, i, s.PEndOverride, s.Inputs[i])
		case dacs != nil:
			dacs[i].DAC, err = core.NewDAC(s.N, i, s.Inputs[i], s.Eps)
		case s.PEndOverride > 0:
			dbacs[i].DBAC, err = core.NewDBACPhases(s.N, s.F, i, s.PEndOverride, s.Inputs[i])
		default:
			dbacs[i].DBAC, err = core.NewDBAC(s.N, s.F, i, s.Inputs[i], s.Eps)
		}
		if err != nil {
			return sim.Config{}, err
		}
		if dacs != nil {
			dacs[i].clk = clk
			procs[i] = &dacs[i]
		} else {
			dbacs[i].clk = clk
			procs[i] = &dbacs[i]
		}
	}
	return sim.Config{
		N: s.N, F: s.F,
		Procs:       procs,
		Byzantine:   s.Byzantine,
		Crashes:     s.Crashes,
		Adversary:   &timedAdversary{inner: ip, clk: clk},
		MaxRounds:   s.MaxRounds,
		ShuffleSeed: s.Seed,
		ForceCSR:    s.ForceCSR,
	}, nil
}

func runDecorated(s anondyn.Scenario, tr *tracer) (*anondyn.Result, error) {
	return runDecoratedEvery(s, tr, sampleEvery)
}

// runDecoratedEvery executes the scenario on an engine whose adversary
// and processes are wrapped in timing decorators, stepping it round by
// round. Every every-th round gets a sim.step span whose children are
// the adversary's generation, the edge set's adjacency build and the
// summed DeliverAll calls; what is left of the step is the engine's own
// time.
func runDecoratedEvery(s anondyn.Scenario, tr *tracer, every int) (*anondyn.Result, error) {
	clk := &stepClock{tr: tr}
	cfg, err := decoratedConfig(s, clk)
	if err != nil {
		return nil, err
	}
	id := tr.begin("sim.new_engine")
	eng, err := sim.NewEngine(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	faultFree := cfg.FaultFree()
	decided := func() bool {
		for _, i := range faultFree {
			if _, ok := cfg.Procs[i].Output(); !ok {
				return false
			}
		}
		return true
	}
	for eng.Round() < maxRounds && !decided() {
		if eng.Round()%every != 0 {
			eng.Step()
			continue
		}
		*clk = stepClock{tr: tr, armed: true}
		id := tr.begin("sim.step")
		eng.Step()
		end := tr.now()
		clk.armed = false
		tr.spans[id].Edges = clk.edges
		tr.child("adversary.gen", clk.genStart, clk.genEnd, 1, clk.edges)
		tr.child("network.build", clk.genEnd, clk.buildEnd, 1, clk.edges)
		tr.child("core.deliver", clk.deliverStart, clk.deliverStart+clk.deliver, clk.deliverCalls, clk.deliveredMsgs)
		tr.endAt(id, end)
	}
	return eng.RunRounds(0), nil
}
