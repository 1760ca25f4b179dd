package sim

import (
	"math"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// executions are the three ways one configuration is run: the engine's
// own path selection, the test-only reference oracle, and the engine on
// the CSR scratch, where Run builds each next round on a second
// goroutine whenever the configuration can pipeline.
var executions = []struct {
	name     string
	forceCSR bool
	run      func(*Engine) *Result
}{
	{"engine", false, (*Engine).Run},
	{"reference", false, referenceRun},
	{"csr", true, (*Engine).Run},
}

// runThreeWays builds the configuration afresh for every execution
// (fresh Process instances, fresh adversaries from the same factory),
// asserts byte-identical Results and identical observer logs, and
// returns the engine's Result and the CSR execution's engine, so a case
// that can pipeline may check that the CSR run really built ahead. mk
// may attach obs or ignore it.
func runThreeWays(t *testing.T, mk func(obs Observer) Config) (*Result, *Engine) {
	t.Helper()
	atLeastTwoProcs(t)
	var first *Result
	var firstLog *observerLog
	var csr *Engine
	for _, ex := range executions {
		log := newObserverLog()
		cfg := mk(log)
		cfg.ForceCSR = ex.forceCSR
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		res := ex.run(eng)
		if ex.forceCSR {
			csr = eng
		}
		if first == nil {
			first, firstLog = res, log
			continue
		}
		assertEqualResults(t, first, res, "%s vs %s", executions[0].name, ex.name)
		if !reflect.DeepEqual(firstLog, log) {
			t.Errorf("observer logs differ between %s and %s", executions[0].name, ex.name)
		}
	}
	return first, csr
}

// assertBuiltAhead fails unless the CSR execution's Run rendered a
// round on the build stage.
func assertBuiltAhead(t *testing.T, csr *Engine) {
	t.Helper()
	if csr.spare == nil {
		t.Error("the CSR run never built a round ahead")
	}
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
	res, csr := runThreeWays(t, mk)
	if !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
	assertBuiltAhead(t, csr)
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
	res, csr := runThreeWays(t, mk)
	if !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
	assertBuiltAhead(t, csr)
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
	if res, _ := runThreeWays(t, mk); !res.Decided {
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
	if res, _ := runThreeWays(t, mk); !res.Decided {
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
	if res, _ := runThreeWays(t, mk); res.Decided {
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
	res, csr := runThreeWays(t, mk)
	if !res.Decided {
		t.Error("scenario never decided — equivalence test vacuous")
	}
	assertBuiltAhead(t, csr)
}

// TestCompleteGraphMatchesTheoreticalContraction: on the complete graph
// DAC decides in exactly pEnd rounds at the optimal Theorem 3 rate.
func TestCompleteGraphMatchesTheoreticalContraction(t *testing.T) {
	eng, err := NewEngine(Config{
		N:         9,
		Procs:     dacProcs(t, 9, 10, spread(9)),
		Adversary: adversary.NewComplete(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided || res.Rounds != 10 {
		t.Fatalf("rounds = %d decided = %v, want 10, true", res.Rounds, res.Decided)
	}
	if res.OutputRange() > math.Pow(0.5, 10) {
		t.Errorf("range %g exceeds (1/2)^10", res.OutputRange())
	}
}

// TestEquivalenceDACPopulationLog runs DAC at n = 513, where the nodes
// of a population with no Byzantine slot log each phase's ports instead
// of setting R's bits (core.NewDACPopulation): the engine and CSR
// executions run such a population, the reference oracle lone
// core.NewDACPhases nodes, which never log. er2 fills the log with
// scattered ports and materializes it when full, with clean, silent and
// partial crashes; rotating:4 and complete deliver runs and materialize
// near the quorum. The population runs once on DeliverAll and once with
// an observer, which delivers message by message.
func TestEquivalenceDACPopulationLog(t *testing.T) {
	const n, pEnd = 513, 3
	er2 := func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.03, 28)) }
	crashes := func(crash func(r int) fault.Crash) fault.Schedule {
		return fault.Schedule{3: crash(1), 100: crash(4), 256: crash(4), 512: crash(9)}
	}
	cases := []struct {
		name    string
		adv     func() adversary.Adversary
		crashes fault.Schedule
	}{
		{"er2/clean", er2, crashes(fault.CrashAt)},
		{"er2/silent", er2, crashes(fault.CrashSilent)},
		{"er2/partial", er2, crashes(func(r int) fault.Crash { return fault.CrashPartial(r, 0, 2, 5, 300) })},
		{"rotating:4", func() adversary.Adversary { return must(adversary.NewRotating(4)) }, nil},
		{"complete", func() adversary.Adversary { return adversary.NewComplete() }, nil},
	}
	run := func(c int, procs []core.Process, forceCSR bool, obs *observerLog, exec func(*Engine) *Result) *Result {
		cfg := Config{N: n, F: 4, Procs: procs, Adversary: cases[c].adv(), Crashes: cases[c].crashes, ForceCSR: forceCSR, MaxRounds: 2000}
		if obs != nil {
			cfg.Hooks.Observer = obs
		}
		return exec(must(NewEngine(cfg)))
	}
	for c := range cases {
		refLog := newObserverLog()
		ref := run(c, dacProcs(t, n, pEnd, spread(n)), false, refLog, referenceRun)
		if !ref.Decided {
			t.Fatalf("%s: never decided — equivalence test vacuous", cases[c].name)
		}
		for _, ex := range executions {
			if ex.name == "reference" {
				continue
			}
			for _, observe := range []bool{false, true} {
				pop := must(core.NewDACPopulation(pEnd, core.CrashQuorum(n), false, func(i int) int { return i }, spread(n), nil))
				procs := make([]core.Process, n)
				for i := range procs {
					procs[i] = &pop[i]
				}
				var log *observerLog
				if observe {
					log = newObserverLog()
				}
				res := run(c, procs, ex.forceCSR, log, ex.run)
				assertEqualResults(t, ref, res, "%s: reference vs %s (observed %v)", cases[c].name, ex.name, observe)
				if observe && !reflect.DeepEqual(refLog, log) {
					t.Errorf("%s: observer logs differ between reference and %s", cases[c].name, ex.name)
				}
			}
		}
	}
}
