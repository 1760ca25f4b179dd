package anondyn_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"anondyn"
	"anondyn/internal/core"
)

// recycleFamily is a Monte-Carlo scenario family whose every randomized
// component is constructed from the run seed — the shape batch callers
// use — so a compiled run reseeded to `seed` must match a fresh
// Scenario built with `seed` bit for bit.
func recycleFamily(seed int64) anondyn.Scenario {
	return anondyn.Scenario{
		N: 9, F: 2, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.RandomInputs(9, seed),
		Adversary: anondyn.Probabilistic(0.5, seed),
		Crashes:   map[int]anondyn.Crash{1: anondyn.CrashAt(3)},
		Seed:      seed,
		MaxRounds: 5000,
	}
}

// byzFamily exercises the Byzantine path: a reseedable RandomNoise
// strategy plus DBAC processes (recycled in place under fixed ports).
func byzFamily(seed int64) anondyn.Scenario {
	return anondyn.Scenario{
		N: 11, F: 2, Eps: 1e-2,
		Algorithm: anondyn.AlgoDBAC,
		Inputs:    anondyn.RandomInputs(11, seed),
		Adversary: anondyn.Complete(),
		Byzantine: map[int]anondyn.Strategy{4: anondyn.RandomNoise(seed)},
		Seed:      seed,
		MaxRounds: 5000,
	}
}

// baselineFamily is recycleFamily's shape for a baseline algorithm:
// crash and er from the seed, MegaRound at T = 2, and binary inputs for
// FloodMin.
func baselineFamily(algo anondyn.Algo) func(int64) anondyn.Scenario {
	return func(seed int64) anondyn.Scenario {
		s := recycleFamily(seed)
		s.Algorithm, s.Eps, s.MegaT, s.MaxRounds = algo, 1e-2, 2, 500
		if algo == anondyn.AlgoFloodMin {
			for i, in := range s.Inputs {
				s.Inputs[i] = math.Round(in)
			}
		}
		return s
	}
}

func mustRun(t *testing.T, s anondyn.Scenario) *anondyn.Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEqualResults(t *testing.T, want, got *anondyn.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// collect runs the family's seeds base, base+1, …, base+runs−1 as one
// batch and returns its results by batch index — nil where the run
// failed — together with the batch error.
func collect(mk func(int64) anondyn.Scenario, runs int, base int64, opts anondyn.BatchOptions) ([]*anondyn.Result, error) {
	got := make([]*anondyn.Result, runs)
	err := runFamily(mk, runs, base, func(i int, _ int64, res *anondyn.Result) error {
		got[i] = res
		return nil
	}, opts)
	return got, err
}

// TestCompiledRunMatchesFreshScenario: one CompiledScenario, reseeded
// and re-input per run, must reproduce fresh per-seed Scenario runs —
// the contract that makes engine and process recycling safe.
func TestCompiledRunMatchesFreshScenario(t *testing.T) {
	for name, family := range map[string]func(int64) anondyn.Scenario{
		"dac-er-crash":   recycleFamily,
		"dbac-byzantine": byzFamily,
	} {
		t.Run(name, func(t *testing.T) {
			cs, err := family(0).Compile()
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 20; seed++ {
				want := mustRun(t, family(seed))
				got, err := cs.Run(seed, family(seed).Inputs)
				if err != nil {
					t.Fatal(err)
				}
				assertEqualResults(t, want, got, fmt.Sprintf("seed %d", seed))
			}
			// Re-running an already-run seed must reproduce it: recycling
			// leaves no residue.
			want := mustRun(t, family(3))
			got, err := cs.Run(3, family(3).Inputs)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualResults(t, want, got, "seed 3 revisited")
		})
	}
}

// TestCompiledRandomPortsMatchesFresh: RandomPorts forces per-run
// process construction; the compiled path must still match fresh runs.
func TestCompiledRandomPortsMatchesFresh(t *testing.T) {
	family := func(seed int64) anondyn.Scenario {
		s := recycleFamily(seed)
		s.RandomPorts = true
		return s
	}
	cs, err := family(0).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		want := mustRun(t, family(seed))
		got, err := cs.Run(seed, family(seed).Inputs)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualResults(t, want, got, fmt.Sprintf("seed %d", seed))
	}
}

// TestRunManyStreamRecycledMatchesSequential: the worker-pool batch —
// whose workers recycle engines and processes across seeds — must
// deliver exactly the results of a fresh sequential loop, for every
// worker count, on the crash and the Byzantine family and on every
// baseline.
func TestRunManyStreamRecycledMatchesSequential(t *testing.T) {
	const runs, base = 24, 100
	for name, family := range map[string]func(int64) anondyn.Scenario{
		"dac-er-crash":      recycleFamily,
		"dbac-byzantine":    byzFamily,
		"megaround":         baselineFamily(anondyn.AlgoMegaRound),
		"fullinfo":          baselineFamily(anondyn.AlgoFullInfo),
		"reliable-iterated": baselineFamily(anondyn.AlgoReliableIterated),
		"bac-reliable":      baselineFamily(anondyn.AlgoBACReliable),
		"floodmin":          baselineFamily(anondyn.AlgoFloodMin),
	} {
		var want []*anondyn.Result
		for i := range runs {
			want = append(want, mustRun(t, family(base+int64(i))))
		}
		for _, workers := range []int{1, 3, 8} {
			got, err := collect(family, runs, base, anondyn.BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				assertEqualResults(t, want[i], got[i], fmt.Sprintf("%s workers=%d seed %d", name, workers, base+i))
			}
		}
	}
}

// TestCompiledRunValidatesInputs: the process-recycling path must
// reject exactly the inputs a fresh construction rejects — out-of-range
// values must not slip through Reinit.
func TestCompiledRunValidatesInputs(t *testing.T) {
	cs, err := recycleFamily(0).Compile()
	if err != nil {
		t.Fatal(err)
	}
	bad := anondyn.SpreadInputs(9)
	bad[4] = 5 // outside [0, 1]
	if _, err := cs.Run(1, bad); err == nil {
		t.Error("compiled run accepted an out-of-range input a fresh run rejects")
	}
	// Wrong input count must also fail, not index out of range.
	if _, err := cs.Run(1, anondyn.SpreadInputs(4)); err == nil {
		t.Error("compiled run accepted a mis-sized input vector")
	}
	// And the scenario must remain usable after a rejected run.
	if _, err := cs.Run(1, anondyn.SpreadInputs(9)); err != nil {
		t.Errorf("compiled scenario unusable after rejected inputs: %v", err)
	}
}

// TestRecycledFloodMinValidatesInputs: a worker that recycles FloodMin
// nodes must reject a non-binary input as a fresh construction does —
// core.ValidateInput alone admits 0.5.
func TestRecycledFloodMinValidatesInputs(t *testing.T) {
	mk := func(seed int64) anondyn.Scenario {
		inputs := []float64{0, 1, 0, 1, 1}
		if seed == 2 {
			inputs[3] = 0.5
		}
		return anondyn.Scenario{
			N: 5, Algorithm: anondyn.AlgoFloodMin, Inputs: inputs,
			Adversary: anondyn.Complete(), Seed: seed,
		}
	}
	const want = "floodmin input must be binary, got 0.5"
	if _, err := mk(2).Run(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fresh run: err %v, want %q", err, want)
	}
	got, err := collect(mk, 2, 1, anondyn.BatchOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("batch: err %v, want %q", err, want)
	}
	if got[0] == nil || got[1] != nil {
		t.Errorf("batch ran seed 1: %v, seed 2: %v; want only seed 1", got[0] != nil, got[1] != nil)
	}
	cs, err := mk(1).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Run(2, mk(2).Inputs); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("compiled run: err %v, want %q", err, want)
	}
}

// TestCompileConfigError: an invalid template, and one whose processes
// cannot be constructed, fail at Compile rather than on the first run.
func TestCompileConfigError(t *testing.T) {
	if _, err := (anondyn.Scenario{N: 3}).Compile(); err == nil {
		t.Error("invalid template accepted")
	}
	for _, randomPorts := range []bool{false, true} {
		s := recycleFamily(0)
		s.RandomPorts = randomPorts
		s.Inputs[2] = -1
		if _, err := s.Compile(); err == nil {
			t.Errorf("RandomPorts=%v: out-of-range template input accepted", randomPorts)
		}
	}
}

// TestRecycledWorkersRace drives the recycled batch paths with many
// workers so `go test -race ./...` (the CI configuration) patrols the
// per-worker engine boxes for sharing bugs; the two-cell grid makes
// workers switch shapes mid-batch.
func TestRecycledWorkersRace(t *testing.T) {
	const runs = 32
	stats := &anondyn.BatchStats{Eps: 1e-3}
	if err := runFamily(recycleFamily, runs, 0, stats.Consume,
		anondyn.BatchOptions{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if stats.Runs() != runs {
		t.Fatalf("streamed %d runs", stats.Runs())
	}
	grid := anondyn.Grid{
		Ns: []int{7, 9},
		Fs: []int{2},
		Adversaries: []anondyn.AdversaryFactory{{Name: "er", New: func(_ anondyn.Cell, seed int64) anondyn.Adversary {
			return anondyn.Probabilistic(0.5, seed)
		}}},
		SeedsPerCell: 16,
		MaxRounds:    5000,
	}
	rows, err := grid.Run(anondyn.BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Runs != grid.SeedsPerCell {
			t.Errorf("n=%d: %d runs, want %d", row.N, row.Runs, grid.SeedsPerCell)
		}
	}
}

// TestRecyclingAllocs pins engine and process recycling by what it
// saves: a run that reuses the box's engine and reinitializes its
// processes in place allocates fewer objects than a fresh Scenario.Run
// of the same seed by at least what building the processes costs — on a
// warmed CompiledScenario and in a steady one-worker batch alike. A DAC
// run builds its nodes as one population, so that cost is a constant:
// the same at n=9 as at n=4097.
func TestRecyclingAllocs(t *testing.T) {
	// A GC cycle inside the n=4097 build lets the runtime clean up its
	// unique-handle map on a background goroutine, whose allocation
	// AllocsPerRun counts as the build's under -race; measure with the
	// collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const seed = 5
	build := func(n int) float64 {
		s := recycleFamily(seed)
		s.N, s.Inputs = n, anondyn.RandomInputs(n, seed)
		return testing.AllocsPerRun(20, func() {
			if _, err := anondyn.BuildProcs(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	saving := build(recycleFamily(seed).N)
	if large := build(4097); large != saving {
		t.Errorf("building DAC processes cost %g allocations at n=9, %g at n=4097: want a constant", saving, large)
	}
	run := func(cs *anondyn.CompiledScenario, s anondyn.Scenario) func() {
		return func() {
			if _, err := cs.Run(seed, s.Inputs); err != nil {
				t.Fatal(err)
			}
		}
	}

	fresh := testing.AllocsPerRun(20, func() { mustRun(t, recycleFamily(seed)) })
	cs, err := recycleFamily(0).Compile()
	if err != nil {
		t.Fatal(err)
	}
	recycled := testing.AllocsPerRun(20, run(cs, recycleFamily(seed)))
	if recycled > fresh-saving {
		t.Errorf("compiled run allocated %g objects, fresh run %g: want at least %g fewer", recycled, fresh, saving)
	}

	const runs = 64
	freshLoop := testing.AllocsPerRun(3, func() {
		for s := range int64(runs) {
			mustRun(t, recycleFamily(s))
		}
	}) / runs
	batch := testing.AllocsPerRun(3, func() {
		if err := runFamily(recycleFamily, runs, 0, (&anondyn.BatchStats{}).Consume,
			anondyn.BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}) / runs
	if batch > freshLoop-saving {
		t.Errorf("one-worker batch allocated %g objects per run, fresh runs %g: want at least %g fewer", batch, freshLoop, saving)
	}
	t.Logf("allocs/run: process build %g, fresh %g, recycled %g, batch %g (fresh loop %g)",
		saving, fresh, recycled, batch, freshLoop)
}

// TestRecyclingKeepsProcesses pins recycling by process identity: a
// compiled scenario with fixed ports runs every seed on the same process
// objects, while one with RandomPorts, whose self ports change per seed,
// builds new ones for every run.
func TestRecyclingKeepsProcesses(t *testing.T) {
	for _, randomPorts := range []bool{false, true} {
		s := recycleFamily(0)
		s.RandomPorts = randomPorts
		cs, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		first, err := cs.ProcsFor(1)
		if err != nil {
			t.Fatal(err)
		}
		first = append([]core.Process(nil), first...)
		second, err := cs.ProcsFor(2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if same := first[i] == second[i]; same == randomPorts {
				t.Errorf("RandomPorts=%v: node %d reused=%v across runs", randomPorts, i, same)
			}
		}
	}
}

// shape is one scenario of TestShapeTransitions' walk: the fields the
// engine box keys process recycling on, plus the input vector.
type shape struct {
	algo                                 anondyn.Algo
	n, f                                 int
	eps                                  float64
	piggybackWindow, megaT, pEnd, quorum int
	unchecked, randomPorts, badInput     bool
	binary                               bool // inputs rounded to 0 or 1, as FloodMin requires
	byzantine                            []int
}

func (sh shape) scenario(seed int64) anondyn.Scenario {
	s := anondyn.Scenario{
		N: sh.n, F: sh.f, Eps: sh.eps,
		Algorithm:        sh.algo,
		PiggybackWindow:  sh.piggybackWindow,
		MegaT:            sh.megaT,
		PEndOverride:     sh.pEnd,
		QuorumOverride:   sh.quorum,
		Unchecked:        sh.unchecked,
		RandomPorts:      sh.randomPorts,
		Inputs:           anondyn.RandomInputs(sh.n, seed),
		Adversary:        anondyn.Probabilistic(0.6, seed),
		Seed:             seed,
		MaxRounds:        3000,
		AccountBandwidth: true,
	}
	if sh.binary {
		for i, in := range s.Inputs {
			s.Inputs[i] = math.Round(in)
		}
	}
	if sh.badInput {
		s.Inputs[1] = 1.5
	}
	if len(sh.byzantine) > 0 {
		s.Byzantine = make(map[int]anondyn.Strategy, len(sh.byzantine))
		for _, id := range sh.byzantine {
			s.Byzantine[id] = anondyn.RandomNoise(seed)
		}
	}
	return s
}

// TestShapeTransitions walks one engine box (a one-worker batch) through
// scenarios that each differ from the previous one in exactly one thing
// — every field process construction reads, the Byzantine set, the port
// policy, every baseline, an out-of-range input between two valid runs —
// and requires every run to equal a fresh Scenario.Run:
// the box must rebuild exactly when reusing its processes would be
// observable, and reject exactly what a fresh run rejects.
func TestShapeTransitions(t *testing.T) {
	steps := []struct {
		name string
		edit func(*shape)
	}{
		{"DAC", func(*shape) {}},
		{"same shape", func(*shape) {}},
		{"Algorithm DACNoJump", func(s *shape) { s.algo = anondyn.AlgoDACNoJump }},
		{"Algorithm DAC", func(s *shape) { s.algo = anondyn.AlgoDAC }},
		{"Eps", func(s *shape) { s.eps = 1e-2 }},
		{"PEndOverride on", func(s *shape) { s.pEnd = 4 }},
		{"PEndOverride off", func(s *shape) { s.pEnd = 0 }},
		{"QuorumOverride on", func(s *shape) { s.quorum = 3 }},
		{"QuorumOverride off", func(s *shape) { s.quorum = 0 }},
		{"N", func(s *shape) { s.n = 11 }},
		{"Unchecked on", func(s *shape) { s.unchecked = true }},
		{"Eps 1 (unchecked)", func(s *shape) { s.eps = 1 }},
		{"Unchecked off (checked constructor rejects Eps 1)", func(s *shape) { s.unchecked = false }},
		{"Eps back", func(s *shape) { s.eps = 1e-3 }},
		{"RandomPorts on", func(s *shape) { s.randomPorts = true }},
		{"RandomPorts off", func(s *shape) { s.randomPorts = false }},
		{"PEndOverride for DBAC", func(s *shape) { s.pEnd = 6 }},
		{"Algorithm DBAC", func(s *shape) { s.algo = anondyn.AlgoDBAC }},
		{"Byzantine {4}", func(s *shape) { s.byzantine = []int{4} }},
		{"Byzantine {5}", func(s *shape) { s.byzantine = []int{5} }},
		{"F", func(s *shape) { s.f = 1 }},
		{"Byzantine {}", func(s *shape) { s.byzantine = nil }},
		{"Algorithm DBACPiggyback", func(s *shape) { s.algo = anondyn.AlgoDBACPiggyback }},
		{"PiggybackWindow", func(s *shape) { s.piggybackWindow = 2 }},
		{"Algorithm MegaRound", func(s *shape) { s.algo = anondyn.AlgoMegaRound }},
		{"MegaT", func(s *shape) { s.megaT = 2 }},
		{"Algorithm FullInfo", func(s *shape) { s.algo = anondyn.AlgoFullInfo }},
		{"same shape (FullInfo)", func(*shape) {}},
		{"Algorithm ReliableIterated", func(s *shape) { s.algo = anondyn.AlgoReliableIterated }},
		{"Algorithm BACReliable", func(s *shape) { s.algo = anondyn.AlgoBACReliable }},
		{"Algorithm FloodMin", func(s *shape) { s.algo, s.binary = anondyn.AlgoFloodMin, true }},
		{"Algorithm DAC again", func(s *shape) { s.algo, s.binary = anondyn.AlgoDAC, false }},
		{"Byzantine {4} (DAC)", func(s *shape) { s.byzantine = []int{4} }},
		{"Byzantine {} (DAC)", func(s *shape) { s.byzantine = nil }},
		{"out-of-range input", func(s *shape) { s.badInput = true }},
		{"valid input", func(s *shape) { s.badInput = false }},
	}
	shapes := make([]shape, len(steps))
	cur := shape{algo: anondyn.AlgoDAC, n: 9, f: 2, eps: 1e-3}
	for i, st := range steps {
		st.edit(&cur)
		shapes[i] = cur
	}
	mk := func(seed int64) anondyn.Scenario { return shapes[seed].scenario(seed) }

	got, batchErr := collect(mk, len(shapes), 0, anondyn.BatchOptions{Workers: 1})
	rejected := 0
	for i := range shapes {
		name := steps[i].name
		want, err := mk(int64(i)).Run()
		switch {
		case err != nil:
			rejected++
			if got[i] != nil {
				t.Errorf("%s: batch ran a scenario a fresh run rejects (%v)", name, err)
			} else if batchErr == nil || !strings.Contains(batchErr.Error(), err.Error()) {
				t.Errorf("%s: batch error %v does not carry the fresh run's %q", name, batchErr, err)
			}
		case got[i] == nil:
			t.Errorf("%s: batch rejected a scenario a fresh run completes", name)
		default:
			assertEqualResults(t, want, got[i], name)
		}
	}
	if rejected != 2 {
		t.Errorf("%d steps rejected by fresh runs, want 2 (the checked Eps 1 and the out-of-range input)", rejected)
	}
}

// TestGridRenewalAllocs pins the per-worker adversary renewal by what
// it saves: a one-worker Grid.Run of an er:0.3 cell, which seeds one
// adversary per worker and cell and reseeds it per run, allocates at
// least one object fewer per run than the same runs as a per-seed
// family (familyGrid) that builds a fresh adversary per run. Per run is the marginal
// cost — a batch of 2R runs less a batch of R, over R — so the sweep's
// fixed set-up (cells, folds, rows) is not spread over the runs. Bytes
// per run are logged beside the counts.
func TestGridRenewalAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as TestRecyclingAllocs
	factory, err := anondyn.ParseAdversaryFactory("er:0.3")
	if err != nil {
		t.Fatal(err)
	}
	grid := anondyn.Grid{
		Ns: []int{9}, Fs: []int{2}, Adversaries: []anondyn.AdversaryFactory{factory},
		MaxRounds: 5000,
	}
	cell := grid.Cells()[0]
	fresh := func(seed int64) anondyn.Scenario {
		return anondyn.Scenario{
			N: 9, F: 2, Eps: cell.Eps, Algorithm: cell.Algorithm,
			Inputs:    anondyn.RandomInputs(9, seed),
			Adversary: factory.New(cell, seed),
			Seed:      seed,
			MaxRounds: grid.MaxRounds,
		}
	}
	opts := anondyn.BatchOptions{Workers: 1}
	const runs = 128
	perRun := func(batch func(runs int)) (allocs, bytes float64) {
		cost := func(runs int) (allocs, bytes float64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			batch(runs)
			runtime.ReadMemStats(&after)
			return testing.AllocsPerRun(3, func() { batch(runs) }), float64(after.TotalAlloc - before.TotalAlloc)
		}
		a1, b1 := cost(runs)
		a2, b2 := cost(2 * runs)
		return (a2 - a1) / runs, (b2 - b1) / runs
	}
	renewed, renewedBytes := perRun(func(runs int) {
		g := grid
		g.SeedsPerCell = runs
		if _, err := g.Run(opts); err != nil {
			t.Fatal(err)
		}
	})
	rebuilt, rebuiltBytes := perRun(func(runs int) {
		if err := runFamily(fresh, runs, 0, (&anondyn.BatchStats{}).Consume, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Both marginals carry the same fraction of an object (the
	// harness's amortized growth); compare whole objects.
	if math.Round(renewed) > math.Round(rebuilt)-1 {
		t.Errorf("one-worker Grid.Run allocated %g objects per run, a fresh adversary per run %g: want at least 1 fewer", renewed, rebuilt)
	}
	t.Logf("per run: renewed %g allocs / %.0f B, fresh adversary %g allocs / %.0f B", renewed, renewedBytes, rebuilt, rebuiltBytes)
}
