package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// executions are the three ways one configuration is run: the engine's
// own path selection, the test-only reference oracle, and the engine
// with its receiver loop spread over three pool workers.
var executions = []struct {
	name    string
	workers int
	run     func(*Engine) *Result
}{
	{"engine", 0, (*Engine).Run},
	{"reference", 0, referenceRun},
	{"workers=3", 3, (*Engine).Run},
}

// runThreeWays builds the configuration afresh for every execution
// (fresh Process instances, fresh adversaries from the same factory),
// asserts byte-identical Results and identical observer logs, and
// returns the engine's Result. mk may attach obs or ignore it: attached,
// it keeps the workers=3 run on the sequential loop, which is then the
// fallback being pinned.
func runThreeWays(t *testing.T, mk func(obs Observer) Config) *Result {
	t.Helper()
	var first *Result
	var firstLog *observerLog
	for _, ex := range executions {
		log := newObserverLog()
		cfg := mk(log)
		cfg.RoundWorkers = ex.workers
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		res := ex.run(eng)
		eng.Close()
		if first == nil {
			first, firstLog = res, log
			continue
		}
		assertEqualResults(t, first, res, "%s vs %s", executions[0].name, ex.name)
		if !reflect.DeepEqual(firstLog, log) {
			t.Errorf("observer logs differ between %s and %s", executions[0].name, ex.name)
		}
	}
	return first
}

func TestEquivalenceDACRotating(t *testing.T) {
	mk := func(Observer) Config {
		rot, err := adversary.NewRotating(3)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:                7,
			Procs:            dacProcs(t, 7, 10, spread(7)),
			Adversary:        rot,
			AccountBandwidth: true,
		}
	}
	if res := runThreeWays(t, mk); !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceDACCrashesRandomPorts(t *testing.T) {
	mk := func(Observer) Config {
		rd, err := adversary.NewRandomDegree(2, 3, 0.1, 4242)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:     7,
			F:     2,
			Procs: dacProcs(t, 7, 8, spread(7)),
			Crashes: fault.Schedule{
				2: fault.CrashPartial(3, 0, 5),
				5: fault.CrashSilent(6),
			},
			Adversary: rd,
			Ports:     network.RandomPorts(7, newRand(17)),
		}
	}
	if res := runThreeWays(t, mk); !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceDBACByzantine(t *testing.T) {
	mk := func(Observer) Config {
		byz := map[int]fault.Strategy{
			3:  fault.Equivocator{Low: 0, High: 1},
			10: fault.NewRandomNoise(555),
		}
		return Config{
			N:         11,
			F:         2,
			Procs:     dbacProcs(t, 11, 2, 10, spread(11), byz),
			Byzantine: byz,
			Adversary: adversary.NewComplete(),
		}
	}
	if res := runThreeWays(t, mk); !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceAdaptiveClustered(t *testing.T) {
	mk := func(Observer) Config {
		cl, err := adversary.NewClustered(3)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:         9,
			Procs:     dacProcs(t, 9, 6, spread(9)),
			Adversary: cl,
			MaxRounds: 400,
		}
	}
	if res := runThreeWays(t, mk); !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

func TestEquivalenceUndecidedRun(t *testing.T) {
	mk := func(Observer) Config {
		halves, err := adversary.NewHalves(6)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:         6,
			Procs:     dacProcs(t, 6, 4, spread(6)),
			Adversary: halves,
			MaxRounds: 40,
		}
	}
	if res := runThreeWays(t, mk); res.Decided {
		t.Error("split scenario should not decide")
	}
}

// observerLog records callbacks for cross-execution comparison:
// per-node phase-transition sequences and decide values.
type observerLog struct {
	phases  map[int][]int
	decides map[int]float64
}

func newObserverLog() *observerLog {
	return &observerLog{phases: make(map[int][]int), decides: make(map[int]float64)}
}

func (o *observerLog) OnPhaseEnter(node, from, to int, value float64, round int) {
	o.phases[node] = append(o.phases[node], from, to, round)
}

func (o *observerLog) OnDecide(node int, value float64, round int) {
	o.decides[node] = value
}

func TestEquivalenceObserverStreams(t *testing.T) {
	mk := func(obs Observer) Config {
		rot, err := adversary.NewRotating(4)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:         9,
			Procs:     dacProcs(t, 9, 6, spread(9)),
			Adversary: rot,
			Hooks:     Hooks{Observer: obs},
		}
	}
	if res := runThreeWays(t, mk); !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
}

// TestRoundPoolNoGoroutineLeak: engines that ran parallel rounds and
// were Closed leave no pool worker behind.
func TestRoundPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		eng, err := NewEngine(Config{
			N:            7,
			Procs:        dacProcs(t, 7, 5, spread(7)),
			Adversary:    adversary.NewComplete(),
			RoundWorkers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := eng.Run(); !res.Decided {
			t.Fatal("undecided")
		}
		if eng.pool == nil {
			t.Fatal("RoundWorkers: 4 never started the pool — leak test vacuous")
		}
		eng.Close()
	}
	// Give exiting workers a moment, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after — workers leaked", before, runtime.NumGoroutine())
}

// TestEngineCloseIdempotent: Close may be called any number of times,
// with or without a pool, and the engine stays usable afterwards — the
// next parallel round re-creates the pool.
func TestEngineCloseIdempotent(t *testing.T) {
	mk := func() Config {
		return Config{
			N:            3,
			Procs:        dacProcs(t, 3, 2, []float64{0, 0.5, 1}),
			Adversary:    adversary.NewComplete(),
			RoundWorkers: 2,
		}
	}
	eng, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	eng.Close() // no pool yet
	first := eng.Run()
	if !first.Decided {
		t.Error("undecided")
	}
	eng.Close()
	eng.Close()
	if err := eng.Reset(mk()); err != nil {
		t.Fatal(err)
	}
	assertEqualResults(t, first, eng.Run(), "run after Close")
	eng.Close()
}

func TestConcurrentMatchesTheoreticalContraction(t *testing.T) {
	// Complete graph, receivers spread over pool workers: the same
	// optimal-rate Theorem 3 behavior as the sequential loop.
	eng, err := NewEngine(Config{
		N:            9,
		Procs:        dacProcs(t, 9, 10, spread(9)),
		Adversary:    adversary.NewComplete(),
		RoundWorkers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res := eng.Run()
	if !res.Decided || res.Rounds != 10 {
		t.Fatalf("rounds = %d decided = %v, want 10, true", res.Rounds, res.Decided)
	}
	if res.OutputRange() > math.Pow(0.5, 10) {
		t.Errorf("range %g exceeds (1/2)^10", res.OutputRange())
	}
}
