package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
)

// helpCase is one configuration of the helped-round properties: a
// population kind over n ≥ network.SparseThreshold nodes, a graph
// family, and crash waves or none.
type helpCase struct {
	pop     string // "dac" (PopulationOf), "dbac" (DBACPopulationOf, fault-free) or "pernode" (PerNode over DACs)
	adv     string // "rotating" or "er2"
	crashes bool   // silent crash waves: the build stage prunes what it builds
}

func (c helpCase) String() string { return fmt.Sprintf("%s/%s/crashes=%v", c.pop, c.adv, c.crashes) }

func helpCases() []helpCase {
	var cs []helpCase
	for _, pop := range []string{"dac", "dbac", "pernode"} {
		for _, adv := range []string{"rotating", "er2"} {
			for _, crashes := range []bool{false, true} {
				cs = append(cs, helpCase{pop, adv, crashes})
			}
		}
	}
	return cs
}

// helpN is the helped rounds' network size: 33 receiver words, 9
// chunks.
const helpN = 2049

// newHelpEngine builds c's engine afresh: new nodes, a new adversary
// from the same seed.
func newHelpEngine(t *testing.T, c helpCase) *Engine {
	t.Helper()
	const n = helpN
	self := func(i int) int { return i }
	inputs := spread(n)
	var adv adversary.Adversary
	switch c.adv {
	case "rotating":
		adv = must(adversary.NewRotating(48))
	default:
		adv = must(adversary.NewSparseProbabilistic(0.03, 3))
	}
	cfg := Config{N: n, Adversary: adv, MaxRounds: 120}
	if c.crashes {
		// Three waves of silent crashes over a stride coprime with n, so
		// every receiver word loses some nodes.
		cfg.Crashes = fault.Schedule{}
		for k := 0; k < n/4; k++ {
			cfg.Crashes[(5+k*37)%n] = fault.CrashSilent(3 + k%3*4)
		}
		cfg.F = len(cfg.Crashes)
	}
	var pop core.Population
	switch c.pop {
	case "dbac":
		ds := must(core.NewDBACPopulation(0, 2, core.ByzQuorum(n, 0), self, inputs, nil))
		cfg.Procs = make([]core.Process, n)
		for i := range ds {
			cfg.Procs[i] = &ds[i]
		}
		pop = core.DBACPopulationOf(ds)
	default:
		ds := must(core.NewDACPopulation(2, core.CrashQuorum(n), false, self, inputs, nil))
		cfg.Procs = make([]core.Process, n)
		for i := range ds {
			cfg.Procs[i] = &ds[i]
		}
		pop = core.PopulationOf(ds)
		if c.pop == "pernode" {
			pop = core.PerNode(cfg.Procs)
		}
	}
	e := new(Engine)
	if err := e.ResetPopulation(cfg, pop); err != nil {
		t.Fatal(err)
	}
	return e
}

// withProcs runs f at GOMAXPROCS procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestHelpedRoundsMatchSequential: at GOMAXPROCS 2 and 4 a Run builds
// ahead and its build goroutine helps deliver the clean CSR rounds, and
// its Result and node end states equal those of the same run at
// GOMAXPROCS 1, which stays on one goroutine — for PopulationOf, a
// fault-free DBACPopulationOf and PerNode, on rotating and er2 graphs,
// with crash waves (pruned rounds) and without. Every case must decide,
// so decided receivers pass through the helper's decided words.
func TestHelpedRoundsMatchSequential(t *testing.T) {
	for _, c := range helpCases() {
		t.Run(c.String(), func(t *testing.T) {
			seq := newHelpEngine(t, c)
			var want *Result
			withProcs(1, func() { want = seq.Run() })
			if seq.spare != nil {
				t.Fatal("the GOMAXPROCS=1 run built ahead")
			}
			if !want.Decided {
				t.Fatalf("undecided after %d rounds: the decided words are untested", want.Rounds)
			}
			for _, procs := range []int{2, 4} {
				piped := newHelpEngine(t, c)
				var got *Result
				withProcs(procs, func() { got = piped.Run() })
				if piped.spare == nil {
					t.Fatalf("GOMAXPROCS=%d: the run never built ahead", procs)
				}
				assertEqualResults(t, want, got, "GOMAXPROCS=%d vs 1", procs)
				assertEqualStates(t, seq, piped, "GOMAXPROCS=%d vs 1", procs)
			}
		})
	}
}

// TestBuildStageHelpsDeliver: on a rotating run, whose build is far
// cheaper than its delivery, the build goroutine delivers chunks of the
// rounds it built ahead of. Whether it wins a chunk in a given round is
// up to the scheduler, so a run is retried a few times before the check
// fails; a run the helper never joins is what the check is for.
func TestBuildStageHelpsDeliver(t *testing.T) {
	atLeastTwoProcs(t)
	c := helpCase{pop: "dac", adv: "rotating"}
	for try := 0; try < 5; try++ {
		e := newHelpEngine(t, c)
		e.Run()
		if e.helped > 0 {
			t.Logf("try %d: the build stage delivered %d chunks in %d rounds", try, e.helped, e.round)
			return
		}
	}
	t.Fatal("the build stage delivered no chunk in five rotating runs")
}

// helperPanics panics in the first chunk the build stage delivers, and
// holds the run goroutine's first chunk back until then, so the panic
// is raised on the build stage whatever the scheduler does.
type helperPanics struct {
	core.Population
	once    sync.Once
	entered chan struct{}
	stack   string
}

func (p *helperPanics) DeliverCSR(part, lo, hi int, recv []uint64, starts, ids []int32, msgs []core.Message, decided []uint64) {
	if part == 1 {
		p.once.Do(func() {
			p.stack = string(debug.Stack())
			close(p.entered)
		})
		panic(errBoom)
	}
	select {
	case <-p.entered:
	case <-time.After(10 * time.Second):
	}
	p.Population.DeliverCSR(part, lo, hi, recv, starts, ids, msgs, decided)
}

// TestPipelineHelpPanicSurfaces: a panic in a chunk the build goroutine
// delivers is re-raised on the goroutine that called Run, as a build's
// is (TestPipelineBuildPanicSurfaces); the build goroutine is gone
// afterwards, and the engine recycles.
func TestPipelineHelpPanicSurfaces(t *testing.T) {
	atLeastTwoProcs(t)
	c := helpCase{pop: "dac", adv: "rotating"}
	eng := newHelpEngine(t, c)
	pop := &helperPanics{Population: eng.pop, entered: make(chan struct{})}
	cfg := eng.cfg
	if err := eng.ResetPopulation(cfg, pop); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		eng.Run()
		return nil
	}()
	if got != errBoom {
		t.Fatalf("Run panicked with %v, want %v", got, errBoom)
	}
	if !strings.Contains(pop.stack, "buildStage).serve") {
		t.Fatalf("the panicking chunk was not delivered on the build stage:\n%s", pop.stack)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines after the panic, %d before", now, before)
	}
	fresh := newHelpEngine(t, c)
	if err := eng.ResetPopulation(fresh.cfg, fresh.pop); err != nil {
		t.Fatal(err)
	}
	ref := newHelpEngine(t, c)
	var want *Result
	withProcs(1, func() { want = ref.Run() })
	assertEqualResults(t, want, eng.Run(), "Run after a helper panic")
	assertEqualStates(t, ref, eng, "Run after a helper panic")
}
