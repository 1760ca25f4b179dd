package sim

import (
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// atLeastTwoProcs lets the runs of a test build ahead whatever the host:
// a run pipelines only while 2 × (pipelining runs) ≤ GOMAXPROCS.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// must unwraps a constructor whose arguments are test constants: an
// error there is a bug in the test.
func must[A any](a A, err error) A {
	if err != nil {
		panic(err)
	}
	return a
}

// thinned gives an in-place base the chaos storm wrapper's shape: a
// Retain pass over the base's set that keeps each link by a hash of
// (t, u, v) — so the build stage runs a filter that reads and rewrites
// its own set, as a storm round does. Over an er2 base the log is
// ascending and is filtered in place; over a rotating base Retain walks
// the sender-major view and rewrites the log from it.
type thinned struct {
	adversary.InPlace
}

func (a *thinned) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	a.InPlace.EdgesInto(t, view, dst)
	dst.Retain(func(u, v int) bool {
		return (uint64(t)<<40^uint64(u)<<20^uint64(v))*0x9e3779b97f4a7c15>>62 != 0 // keep ¾
	})
}

func (a *thinned) Oblivious() bool { return adversary.IsOblivious(a.InPlace) }

// pipeCase is one configuration of the pipeline properties; mk builds it
// afresh — new processes, a new adversary from the same seed — each call.
type pipeCase struct {
	name    string
	decides bool // the expected outcome, so no case is vacuous
	mk      func(t *testing.T) Config
}

func pipeCases() []pipeCase {
	dac := func(t *testing.T, n, pEnd, maxRounds int, adv adversary.Adversary) Config {
		return Config{
			N: n, Procs: dacProcs(t, n, pEnd, spread(n)), Adversary: adv,
			MaxRounds: maxRounds, ForceCSR: true, KeepTrace: true,
		}
	}
	return []pipeCase{
		{"er2/decides", true, func(t *testing.T) Config {
			return dac(t, 48, 4, 400, must(adversary.NewSparseProbabilistic(0.25, 5)))
		}},
		{"er2/budget", false, func(t *testing.T) Config {
			return dac(t, 48, 8, 30, must(adversary.NewSparseProbabilistic(0.02, 6)))
		}},
		{"rotating", true, func(t *testing.T) Config {
			return dac(t, 40, 3, 400, must(adversary.NewRotating(5)))
		}},
		{"random", true, func(t *testing.T) Config {
			return dac(t, 40, 3, 400, must(adversary.NewRandomDegree(2, 20, 0.05, 7)))
		}},
		{"storm-shaped", true, func(t *testing.T) Config {
			base := must(adversary.NewSparseProbabilistic(0.3, 8))
			return dac(t, 48, 3, 400, &thinned{InPlace: base})
		}},
		{"storm-shaped/rotating", true, func(t *testing.T) Config {
			return dac(t, 40, 3, 400, &thinned{InPlace: must(adversary.NewRotating(8))})
		}},
		{"complete-to-dense", true, func(t *testing.T) Config {
			// FillComplete turns the CSR sets dense: the build stage must
			// not force a CSR view on them.
			return dac(t, 20, 3, 400, adversary.NewComplete())
		}},
		{"crash-heavy", false, func(t *testing.T) Config {
			// ¾ of the nodes dead by round 11: the build stage leaves its
			// sets whole for KeepTrace, and the gather skips the dead.
			cfg := dac(t, 64, 40, 30, must(adversary.NewSparseProbabilistic(0.3, 10)))
			cfg.Crashes = crashHeavy(64)
			return cfg
		}},
		{"crash-heavy/untraced", false, func(t *testing.T) Config {
			// No edge observer: the build stage prunes what it builds.
			cfg := dac(t, 64, 40, 30, must(adversary.NewSparseProbabilistic(0.3, 10)))
			cfg.Crashes, cfg.KeepTrace = crashHeavy(64), false
			return cfg
		}},
		{"crash-heavy/storm-shaped/untraced", false, func(t *testing.T) Config {
			cfg := dac(t, 64, 40, 30, &thinned{InPlace: must(adversary.NewSparseProbabilistic(0.3, 14))})
			cfg.Crashes, cfg.KeepTrace = crashHeavy(64), false
			return cfg
		}},
		{"crash-heavy/rotating/untraced", false, func(t *testing.T) Config {
			cfg := dac(t, 64, 40, 30, must(adversary.NewRotating(9)))
			cfg.Crashes, cfg.KeepTrace = crashHeavy(64), false
			return cfg
		}},
		{"crashes", true, func(t *testing.T) Config {
			cfg := dac(t, 48, 3, 400, must(adversary.NewSparseProbabilistic(0.3, 9)))
			cfg.F = 3
			cfg.Crashes = fault.Schedule{
				3:  fault.CrashPartial(2, 0, 1),
				7:  fault.CrashAt(4),
				11: fault.CrashSilent(1),
			}
			return cfg
		}},
	}
}

// stepRun is Run as a plain loop of Steps: the sequential execution.
func stepRun(e *Engine) *Result {
	for e.round < e.maxRounds && !e.allDecided() {
		e.Step()
	}
	return e.finish()
}

// TestPipelinedRunMatchesOracle: a pipelined Run, the reference oracle
// and a plain Step loop produce byte-identical Results — kept traces
// included — and identical node end states on every case, and the Run
// really built ahead.
func TestPipelinedRunMatchesOracle(t *testing.T) {
	atLeastTwoProcs(t)
	for _, tc := range pipeCases() {
		t.Run(tc.name, func(t *testing.T) {
			piped, err := NewEngine(tc.mk(t))
			if err != nil {
				t.Fatal(err)
			}
			if !piped.pipelines {
				t.Fatal("configuration not eligible to pipeline")
			}
			got := piped.Run()
			if piped.spare == nil {
				t.Fatal("Run never built a round ahead")
			}
			if got.Decided != tc.decides {
				t.Fatalf("decided = %v, want %v", got.Decided, tc.decides)
			}
			for name, run := range map[string]func(*Engine) *Result{"reference": referenceRun, "step loop": stepRun} {
				other, err := NewEngine(tc.mk(t))
				if err != nil {
					t.Fatal(err)
				}
				assertEqualResults(t, run(other), got, "%s vs pipelined Run", name)
				assertEqualStates(t, other, piped, "%s vs pipelined Run", name)
			}
		})
	}
}

// TestPipelinedRunRecycled drives one engine through every case twice,
// interleaved with a dense (never pipelined) run, against fresh
// reference engines: Reset must carry nothing — pending graphs, spare
// sets in the wrong representation — from one run into the next.
func TestPipelinedRunRecycled(t *testing.T) {
	atLeastTwoProcs(t)
	cases := append(pipeCases(), pipeCase{"dense", true, func(t *testing.T) Config {
		return Config{N: 48, Procs: dacProcs(t, 48, 3, spread(48)), Adversary: must(adversary.NewSparseProbabilistic(0.3, 4)), MaxRounds: 400}
	}})
	var eng *Engine
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			if eng == nil {
				eng = must(NewEngine(tc.mk(t)))
			} else if err := eng.Reset(tc.mk(t)); err != nil {
				t.Fatal(err)
			}
			got := eng.Run()
			eng.Step() // consume the graph a decided pipelined Run built ahead
			got2 := eng.finish()

			ref := must(NewEngine(tc.mk(t)))
			assertEqualResults(t, referenceRun(ref), got, "pass %d %s: recycled Run", pass, tc.name)
			referenceStep(ref)
			assertEqualResults(t, ref.finish(), got2, "pass %d %s: recycled Run + Step", pass, tc.name)
			assertEqualStates(t, ref, eng, "pass %d %s: recycled Run + Step", pass, tc.name)
		}
	}
}

// loggedAdversary records the round of every EdgesInto call.
type loggedAdversary struct {
	adversary.InPlace
	calls []int
}

func (a *loggedAdversary) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	a.calls = append(a.calls, t)
	a.InPlace.EdgesInto(t, view, dst)
}

func (a *loggedAdversary) Oblivious() bool { return adversary.IsOblivious(a.InPlace) }

// assertCalls checks the adversary saw exactly rounds 0..upto-1, each
// once, in order.
func assertCalls(t *testing.T, calls []int, upto int, label string) {
	t.Helper()
	if len(calls) != upto {
		t.Fatalf("%s: %d EdgesInto calls %v, want rounds 0..%d", label, len(calls), calls, upto-1)
	}
	for i, r := range calls {
		if r != i {
			t.Fatalf("%s: call %d rendered round %d (calls %v)", label, i, r, calls)
		}
	}
}

// TestPipelineAdversaryCalls pins the adversary contract of the
// pipeline: every round is rendered once, in strictly increasing order;
// a Run that decides renders at most one round past its last, which the
// next Step consumes instead of rendering it again; RunRounds and a Run
// that exhausts its budget never render past their last round.
func TestPipelineAdversaryCalls(t *testing.T) {
	atLeastTwoProcs(t)
	mk := func(t *testing.T, maxRounds int) (Config, *loggedAdversary) {
		adv := &loggedAdversary{InPlace: must(adversary.NewSparseProbabilistic(0.25, 5))}
		return Config{
			N: 48, Procs: dacProcs(t, 48, 4, spread(48)), Adversary: adv,
			MaxRounds: maxRounds, ForceCSR: true,
		}, adv
	}

	cfg, adv := mk(t, 400)
	eng := must(NewEngine(cfg))
	res := eng.Run()
	if !res.Decided {
		t.Fatal("undecided — the one-past-decision case is vacuous")
	}
	r := res.Rounds
	assertCalls(t, adv.calls, r+1, "decided Run") // one round built ahead, past the decision
	eng.Step()
	assertCalls(t, adv.calls, r+1, "Step after Run") // consumed, not rendered again
	res = eng.RunRounds(3)
	assertCalls(t, adv.calls, r+4, "RunRounds(3)")
	if res.Rounds != r+4 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, r+4)
	}

	// The same sequence stepped by hand, for the results.
	seqCfg, seqAdv := mk(t, 400)
	seq := must(NewEngine(seqCfg))
	for i := 0; i < r+4; i++ {
		seq.Step()
	}
	assertCalls(t, seqAdv.calls, r+4, "Step loop")
	assertEqualResults(t, seq.finish(), res, "Step loop vs Run+Step+RunRounds")

	cfg, adv = mk(t, 5)
	eng = must(NewEngine(cfg))
	if res := eng.Run(); res.Decided || res.Rounds != 5 {
		t.Fatalf("budget run: rounds %d decided %v, want 5 undecided", res.Rounds, res.Decided)
	}
	assertCalls(t, adv.calls, 5, "Run to its budget")
	if eng.spare == nil {
		t.Error("the budget run never built ahead")
	}
}

// TestPipelineIdleCoreBudget: with one core, or with every core already
// claimed by pipelining runs, Run stays on its own goroutine — the
// adversary renders no round past the decision and no spare set exists
// — and still matches the oracle.
func TestPipelineIdleCoreBudget(t *testing.T) {
	tc := pipeCases()[0]
	check := func(t *testing.T) {
		t.Helper()
		eng := must(NewEngine(tc.mk(t)))
		res := eng.Run()
		if eng.spare != nil || eng.pending {
			t.Error("the run built ahead without an idle core")
		}
		assertEqualResults(t, referenceRun(must(NewEngine(tc.mk(t)))), res, "sequential Run vs reference")
	}
	t.Run("gomaxprocs=1", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		check(t)
	})
	t.Run("saturated", func(t *testing.T) {
		procs := runtime.GOMAXPROCS(0)
		others := int32(procs / 2) // with this run: 2·(procs/2 + 1) > procs
		pipelineRuns.Add(others)
		defer pipelineRuns.Add(-others)
		check(t)
	})
}

// TestPipelineNoGoroutineSurvivesRun: the build goroutine does not
// outlive Run (or RunRounds). Run returns once serve's deferred
// close(done) has run, when the goroutine has only to return, so it may
// still be counted for a moment: the count is polled until it is back
// to what it was, and a goroutine that never exits fails at the
// deadline.
func TestPipelineNoGoroutineSurvivesRun(t *testing.T) {
	atLeastTwoProcs(t)
	before := runtime.NumGoroutine()
	settled := func() int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			now := runtime.NumGoroutine()
			if now <= before || time.Now().After(deadline) {
				return now
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, tc := range pipeCases() {
		eng := must(NewEngine(tc.mk(t)))
		eng.Run()
		if eng.spare == nil {
			t.Fatalf("%s: Run never built ahead — the check is vacuous", tc.name)
		}
		if now := settled(); now > before {
			t.Fatalf("%s: %d goroutines after Run, %d before", tc.name, now, before)
		}
		eng.RunRounds(4)
		if now := settled(); now > before {
			t.Fatalf("%s: %d goroutines after RunRounds, %d before", tc.name, now, before)
		}
	}
}

var errBoom = errors.New("boom")

// exploding panics when asked for one round, recording the stack it
// panicked on.
type exploding struct {
	adversary.InPlace
	at    int
	stack string
}

func (x *exploding) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	if t == x.at {
		x.stack = string(debug.Stack())
		panic(errBoom)
	}
	x.InPlace.EdgesInto(t, view, dst)
}

func (x *exploding) Oblivious() bool { return true }

// TestPipelineBuildPanicSurfaces: a panic while building a round ahead
// is re-raised on the goroutine that called Run — the process survives
// it — the build goroutine is gone afterwards, and the engine recycles.
func TestPipelineBuildPanicSurfaces(t *testing.T) {
	atLeastTwoProcs(t)
	tc := pipeCases()[0]
	cfg := tc.mk(t)
	adv := &exploding{InPlace: cfg.Adversary.(adversary.InPlace), at: 3}
	cfg.Adversary = adv
	eng := must(NewEngine(cfg))
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		eng.Run()
		return nil
	}()
	if got != errBoom {
		t.Fatalf("Run panicked with %v, want %v", got, errBoom)
	}
	if !strings.Contains(adv.stack, "buildStage).serve") {
		t.Fatalf("the panicking call did not run on the build stage:\n%s", adv.stack)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines after the panic, %d before", now, before)
	}
	if err := eng.Reset(tc.mk(t)); err != nil {
		t.Fatal(err)
	}
	assertEqualResults(t, referenceRun(must(NewEngine(tc.mk(t)))), eng.Run(), "Run after a build panic")
}

// panicky wraps a node and panics at the end of one of its rounds.
type panicky struct {
	core.Process
	rounds, at int
}

func (p *panicky) EndRound() {
	p.Process.EndRound()
	if p.rounds == p.at {
		panic("delivery panic")
	}
	p.rounds++
}

// gated blocks the rendering of one round until released.
type gated struct {
	adversary.InPlace
	at       int
	entered  chan struct{}
	release  chan struct{}
	finished atomic.Bool
}

func (g *gated) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	if t == g.at {
		close(g.entered)
		<-g.release
	}
	g.InPlace.EdgesInto(t, view, dst)
	if t == g.at {
		g.finished.Store(true)
	}
}

func (g *gated) Oblivious() bool { return true }

// TestResetAfterPanicMidBuild: a panic out of round t unwinds Run while
// the build of round t+1 is still running. The panic leaves Run only
// once that build has finished — Run never leaves a build behind — so
// the Reset that follows cannot race it on the spare set or the
// adversary, and the recycled engine matches a fresh one.
func TestResetAfterPanicMidBuild(t *testing.T) {
	atLeastTwoProcs(t)
	tc := pipeCases()[0]
	cfg := tc.mk(t)
	const at = 3
	adv := &gated{
		InPlace: cfg.Adversary.(adversary.InPlace), at: at + 1,
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	cfg.Adversary = adv
	cfg.Procs[0] = &panicky{Process: cfg.Procs[0], at: at}
	eng := must(NewEngine(cfg))
	go func() {
		<-adv.entered
		time.Sleep(20 * time.Millisecond) // let the round's panic reach Run's exit first
		close(adv.release)
	}()
	got := func() (p any) {
		defer func() { p = recover() }()
		eng.Run()
		return nil
	}()
	if got != "delivery panic" {
		t.Fatalf("Run panicked with %v", got)
	}
	select {
	case <-adv.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("round %d was never built ahead", at+1)
	}
	if !adv.finished.Load() {
		t.Fatal("the panic left Run while the build of the next round was still running")
	}
	if err := eng.Reset(tc.mk(t)); err != nil {
		t.Fatal(err)
	}
	assertEqualResults(t, referenceRun(must(NewEngine(tc.mk(t)))), eng.Run(), "Run after Reset")
}
