package anondyn_test

// The benchmark harness: one BenchmarkE<k> per experiment table that
// dyna tables -exp E<k> prints and internal/experiments' TestE<k>Shape
// pins (run them with `go test -bench=E -benchmem`), plus
// micro-benchmarks of the substrate (engine round throughput, wire
// codec, dynaDegree checking). Each experiment bench regenerates the
// full table per iteration, so ns/op is the cost of reproducing that
// table.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/adversary"
	"anondyn/internal/chaos"
	"anondyn/internal/core"
	"anondyn/internal/experiments"
	"anondyn/internal/metrics"
	"anondyn/internal/sim"
	"anondyn/internal/spec"
)

func benchExperiment(b *testing.B, run func() interface{ Rows() int }) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := run()
		if tb.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1DACConvergence(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E1DACConvergence() })
}

func BenchmarkE2CrashDegreeNecessity(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E2CrashDegreeNecessity() })
}

func BenchmarkE3CrashResilienceBoundary(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E3CrashResilienceBoundary() })
}

func BenchmarkE4RoundsVsT(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E4RoundsVsT() })
}

func BenchmarkE5DBACConvergence(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E5DBACConvergence() })
}

func BenchmarkE6ByzantineNecessity(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E6ByzantineNecessity() })
}

func BenchmarkE7Baselines(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E7Baselines() })
}

func BenchmarkE8BandwidthTradeoff(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E8BandwidthTradeoff() })
}

func BenchmarkE9ExactImpossibility(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E9ExactImpossibility() })
}

func BenchmarkE10ProbabilisticRounds(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E10ProbabilisticRounds() })
}

func BenchmarkE11BandwidthCaps(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E11BandwidthCaps() })
}

func BenchmarkE12JumpAblation(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E12JumpAblation() })
}

func BenchmarkE13RateProbe(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.E13RateProbe() })
}

func BenchmarkF1ConvergenceCurves(b *testing.B) {
	benchExperiment(b, func() interface{ Rows() int } { return experiments.F1ConvergenceCurves() })
}

// BenchmarkRunManyParallel measures the worker-pool batch harness on a
// 1000-seed DAC Monte-Carlo batch against the sequential baseline
// (workers=1). Every worker recycles its engine and, the family's runs
// sharing one shape, its DAC processes, so this is the fully recycled
// batch path. The per-seed results are identical by construction; the
// ratio of the two ns/op figures is the parallel speedup. The pool sizes
// are fixed so the row names do not depend on the host's GOMAXPROCS;
// run with -cpu 2 (or more) for workers=2 to have two cores.
func BenchmarkRunManyParallel(b *testing.B) {
	const batch = 1000
	family := func(seed int64) anondyn.Scenario {
		return anondyn.Scenario{
			N: 9, F: 2, Eps: 1e-3,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.RandomInputs(9, seed),
			Adversary: anondyn.Probabilistic(0.5, seed),
			Seed:      seed,
			MaxRounds: 5000,
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats := &anondyn.BatchStats{Eps: 1e-3}
				err := anondyn.RunManyStream(anondyn.Seeds(batch, 0), family, stats.Consume,
					anondyn.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Runs() != batch {
					b.Fatalf("streamed %d runs", stats.Runs())
				}
			}
		})
	}
}

// BenchmarkGridRun prices a committed spec end to end through
// spec.Grid and Grid.Run on one worker: er-crash-sweep (DAC at n = 9
// under er:0.1/0.3/0.7 and the complete graph, two crashes) at 250
// seeds per cell, the sweep-small-local workload's path without its
// pool. ns/op is the 1 000-run sweep; allocs/op prices what a run
// rebuilds.
func BenchmarkGridRun(b *testing.B) {
	data, err := specs.Read("er-crash-sweep.yaml")
	if err != nil {
		b.Fatal(err)
	}
	sw, err := spec.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	sw.SeedsPerCell = 250
	grid, err := sw.Grid()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("er-crash-sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := grid.Run(anondyn.BatchOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Substrate micro-benchmarks.

// steadyProcs builds n never-deciding DAC processes (huge phase
// budget), so every engine Step over them is a steady-state round.
func steadyProcs(tb testing.TB, n int) []core.Process {
	tb.Helper()
	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		d, err := core.NewDACPhases(n, i, 1<<20, float64(i)/float64(n-1))
		if err != nil {
			tb.Fatal(err)
		}
		procs[i] = d
	}
	return procs
}

// steadyEngine builds an engine that never decides; opts tweak the
// Config (CSR scratch, Byzantine nodes, metrics) before construction.
func steadyEngine(tb testing.TB, n int, adv anondyn.Adversary, opts ...func(*sim.Config)) *sim.Engine {
	tb.Helper()
	cfg := sim.Config{
		N:         n,
		Procs:     steadyProcs(tb, n),
		Adversary: adv,
		MaxRounds: 1 << 30,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng.RunRounds(32) // warm the delivery scratch
	return eng
}

// steadyPopulation is steadyEngine with the nodes built as one
// core.NewDACPopulation network and driven through core.PopulationOf,
// as Scenario drives a DAC run: on a clean CSR round each receiver's
// in-row goes to the population as it stands.
func steadyPopulation(tb testing.TB, n int, adv anondyn.Adversary, opts ...func(*sim.Config)) *sim.Engine {
	tb.Helper()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / float64(n-1)
	}
	dacs, err := core.NewDACPopulation(1<<20, core.CrashQuorum(n), false, func(i int) int { return i }, inputs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	procs := make([]core.Process, n)
	for i := range procs {
		procs[i] = &dacs[i]
	}
	cfg := sim.Config{N: n, Procs: procs, Adversary: adv, MaxRounds: 1 << 30}
	for _, opt := range opts {
		opt(&cfg)
	}
	eng := new(sim.Engine)
	if err := eng.ResetPopulation(cfg, core.PopulationOf(dacs)); err != nil {
		tb.Fatal(err)
	}
	eng.RunRounds(32) // warm the delivery scratch
	return eng
}

// byzMiddle turns a steady config into the Byzantine sweep's shape:
// never-deciding DBAC processes and f Byzantine nodes placed `middle`
// (IDs n/2 … n/2+f−1, where the spec layer puts them), each running the
// strategy mk builds for it.
func byzMiddle(tb testing.TB, f int, mk func(node int) anondyn.Strategy) func(*sim.Config) {
	return func(cfg *sim.Config) {
		n := cfg.N
		cfg.F = f
		cfg.Byzantine = make(map[int]anondyn.Strategy, f)
		for id := n / 2; id < n/2+f; id++ {
			cfg.Byzantine[id] = mk(id)
		}
		for i := range cfg.Procs {
			if _, byz := cfg.Byzantine[i]; byz {
				cfg.Procs[i] = nil
				continue
			}
			d, err := core.NewDBACPhases(n, f, i, 1<<20, float64(i)/float64(n-1))
			if err != nil {
				tb.Fatal(err)
			}
			cfg.Procs[i] = d
		}
	}
}

func equivocators(int) anondyn.Strategy { return anondyn.Equivocator(0, 1) }

// byzDegree is the sweep's randomized (2B−1, ⌊(n+3f)/2⌋)-dynaDegree
// adversary: block 3, so 200 measured rounds span 66 block rebuilds.
func byzDegree(n, f int) anondyn.Adversary {
	return anondyn.RandomDegree(3, anondyn.ByzDegree(n, f), 0.05, 1)
}

// steadyAdversaries are the adversaries the zero-allocation budget is
// asserted on: the benign complete graph, the §VII probabilistic
// adversary (the Monte-Carlo workhorse) at two densities, and a sparse
// rotating regular graph — the graph family whose delivery cost should
// scale with in-degree, not n.
func steadyAdversaries() map[string]func() anondyn.Adversary {
	return map[string]func() anondyn.Adversary{
		"complete": func() anondyn.Adversary { return anondyn.Complete() },
		"er":       func() anondyn.Adversary { return anondyn.Probabilistic(0.5, 1) },
		"er10":     func() anondyn.Adversary { return anondyn.Probabilistic(0.1, 1) },
		"d4":       func() anondyn.Adversary { return anondyn.Rotating(4) },
	}
}

// TestSteadyRoundAllocBudget is the PR's allocation budget, enforced:
// a steady-state DAC engine round performs ZERO heap allocations, on
// both the complete-graph and probabilistic adversaries. Any regression
// in the engine hot loop, the adversary fast paths, or the edge-set
// scratch shows up here as a hard failure.
func TestSteadyRoundAllocBudget(t *testing.T) {
	for name, mk := range steadyAdversaries() {
		t.Run(name, func(t *testing.T) {
			eng := steadyEngine(t, 9, mk())
			if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
				t.Errorf("steady-state round allocated %g times per round, want 0", avg)
			}
		})
	}
	// The budget holds at sparse scale too: the n=1025 geometric-skip
	// rounds must not regrow the delivery scratch when a late round sees
	// a record in-degree (the scratch is sized to the n−1 maximum up
	// front), and the skipped view refresh must not be replaced by
	// anything that allocates.
	t.Run("er2/n=1025", func(t *testing.T) {
		eng := steadyEngine(t, 1025, anondyn.SparseProbabilistic(8.0/1025, 1))
		if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
			t.Errorf("steady-state sparse round allocated %g times per round, want 0", avg)
		}
	})
	// The CSR round core keeps the budget: the forced-sparse scratch
	// (mutation log, receiver-major CSR arrays) must absorb record-edge
	// rounds through its headroom, never by reallocating in the steady
	// state.
	t.Run("er2/n=1025/csr", func(t *testing.T) {
		eng := steadyEngine(t, 1025, anondyn.SparseProbabilistic(8.0/1025, 1),
			func(cfg *sim.Config) { cfg.ForceCSR = true })
		if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
			t.Errorf("steady-state CSR round allocated %g times per round, want 0", avg)
		}
	})
	// Past the size threshold the CSR representation is automatic.
	t.Run("er2/n=4097", func(t *testing.T) {
		eng := steadyEngine(t, 4097, anondyn.SparseProbabilistic(8.0/4097, 1))
		if avg := testing.AllocsPerRun(30, eng.Step); avg != 0 {
			t.Errorf("steady-state auto-CSR round allocated %g times per round, want 0", avg)
		}
	})
	// The population path holds it too: CSR rows delivered straight off
	// the in-row (forced below the threshold, automatic past it, and on
	// pruned crash rounds), and the dense direct gather.
	for name, mk := range map[string]func(tb testing.TB) *sim.Engine{
		"population/complete/n=9": func(tb testing.TB) *sim.Engine { return steadyPopulation(tb, 9, anondyn.Complete()) },
		"population/er2/n=1025/csr": func(tb testing.TB) *sim.Engine {
			return steadyPopulation(tb, 1025, anondyn.SparseProbabilistic(8.0/1025, 1),
				func(cfg *sim.Config) { cfg.ForceCSR = true })
		},
		"population/er2/n=4097": func(tb testing.TB) *sim.Engine {
			return steadyPopulation(tb, 4097, anondyn.SparseProbabilistic(8.0/4097, 1))
		},
		"population/d4/n=4097": func(tb testing.TB) *sim.Engine { return steadyPopulation(tb, 4097, anondyn.Rotating(4)) },
		"population/er2/n=1025/csr/crash": func(tb testing.TB) *sim.Engine {
			return steadyPopulation(tb, 1025, anondyn.SparseProbabilistic(8.0/1025, 1), func(cfg *sim.Config) {
				cfg.ForceCSR = true
				cfg.Crashes = map[int]anondyn.Crash{}
				for k := 0; k < 256; k++ {
					cfg.Crashes[4*k] = anondyn.CrashSilent(40 + k%4*10)
				}
				cfg.F = len(cfg.Crashes)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			eng := mk(t)
			if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
				t.Errorf("steady-state population round allocated %g times per round, want 0", avg)
			}
		})
	}
	// Crash rounds take the direct gather and count their lost messages
	// in it, allocation-free: a clean and a partial crash inside the
	// measured window on the dense set, and silent crashes in waves on
	// the CSR one (every round after the first wave skips dead senders).
	t.Run("crash/n=9", func(t *testing.T) {
		eng := steadyEngine(t, 9, anondyn.Probabilistic(0.5, 1), func(cfg *sim.Config) {
			cfg.F = 2
			cfg.Crashes = map[int]anondyn.Crash{2: anondyn.CrashAt(60), 5: anondyn.CrashPartial(120, 0, 1)}
		})
		if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
			t.Errorf("crash round allocated %g times per round, want 0", avg)
		}
	})
	t.Run("er2/n=1025/csr/crash", func(t *testing.T) {
		eng := steadyEngine(t, 1025, anondyn.SparseProbabilistic(8.0/1025, 1), func(cfg *sim.Config) {
			cfg.ForceCSR = true
			cfg.Crashes = map[int]anondyn.Crash{}
			for k := 0; k < 256; k++ {
				cfg.Crashes[4*k] = anondyn.CrashSilent(40 + k%4*10)
			}
			cfg.F = len(cfg.Crashes)
		})
		if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
			t.Errorf("CSR crash round allocated %g times per round, want 0", avg)
		}
	})
	// Most senders dead (¾ of the nodes crash silently by round 16, inside
	// the warm-up): every steady round prunes E(t) of the dead nodes'
	// links before the receiver-major build — on the run goroutine in a
	// Step, on the build stage in a pipelined RunRounds. AllocsPerRun pins
	// GOMAXPROCS to 1, which keeps a run from building ahead, so the
	// pipelined row counts mallocs itself: RunRounds' per-call cost (the
	// Result's maps, the build goroutine) is the same for 8 rounds and
	// 40, so 32 more steady rounds must add none.
	mostlyDead := func(cfg *sim.Config) {
		cfg.ForceCSR = true
		cfg.Crashes = map[int]anondyn.Crash{}
		for k := 0; k < 3*cfg.N/4; k++ {
			cfg.Crashes[k*37%cfg.N] = anondyn.CrashSilent(4 + k%4*4)
		}
	}
	t.Run("er2/n=1025/csr/mostly-dead", func(t *testing.T) {
		eng := steadyEngine(t, 1025, anondyn.SparseProbabilistic(8.0/1025, 1), mostlyDead)
		if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
			t.Errorf("pruned CSR round allocated %g times per round, want 0", avg)
		}
	})
	t.Run("er2/n=1025/csr/mostly-dead/pipelined", func(t *testing.T) {
		if prev := runtime.GOMAXPROCS(0); prev < 2 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		probe := &stageProbe{InPlaceAdversary: anondyn.SparseProbabilistic(8.0/1025, 1).(anondyn.InPlaceAdversary)}
		eng := steadyEngine(t, 1025, probe, mostlyDead)
		probe.probing = true
		eng.RunRounds(4)
		probe.probing = false
		if !probe.onStage {
			t.Fatal("RunRounds never built a round on the build stage: the row is vacuous")
		}
		mallocs := func(k int) uint64 {
			var best uint64
			for try := 0; try < 5; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				eng.RunRounds(k)
				runtime.ReadMemStats(&after)
				if n := after.Mallocs - before.Mallocs; try == 0 || n < best {
					best = n
				}
			}
			return best
		}
		if short, long := mallocs(8), mallocs(40); long > short {
			t.Errorf("pipelined pruned rounds allocated: %d mallocs for RunRounds(40), %d for RunRounds(8)", long, short)
		}
	})
	// The storm filter edits the round's set in place through Retain: an
	// er2 log (ascending) is filtered as it stands, a rotating one
	// (receiver-major) through its sender-major view — neither allocates.
	for name, base := range map[string]func() anondyn.Adversary{
		"sorted":   func() anondyn.Adversary { return anondyn.SparseProbabilistic(8.0/1025, 1) },
		"unsorted": func() anondyn.Adversary { return anondyn.Rotating(8) },
	} {
		t.Run("storm/n=1025/csr/"+name, func(t *testing.T) {
			st := &chaos.Stress{
				Fleet:  chaos.Fleet{TotalNodes: 1025, Groups: 4},
				Rounds: 400,
				Events: []chaos.Event{
					{Kind: "partition", Round: 1, Duration: 300, Groups: []int{1}},
					{Kind: "starve", Round: 1, Duration: 300, Rate: 0.2},
				},
			}
			if err := st.Validate(); err != nil {
				t.Fatal(err)
			}
			eng := steadyEngine(t, 1025, st.CompileStorm(1).WrapAdversary(base()),
				func(cfg *sim.Config) { cfg.ForceCSR = true })
			if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
				t.Errorf("storm round allocated %g times per round, want 0", avg)
			}
		})
	}
	// The Byzantine round holds the same budget: in-place strategies fill
	// storage the engine carved at Reset, the bounded extreme lists never
	// regrow, and RandomDegree rebuilds its block schedule (every third
	// round here) into reused sets through a reused permutation buffer.
	for _, nf := range []struct{ n, f int }{{16, 3}, {51, 10}} {
		for name, adv := range map[string]anondyn.Adversary{
			"complete": anondyn.Complete(),
			"byzdeg":   byzDegree(nf.n, nf.f),
		} {
			t.Run(fmt.Sprintf("dbac/n=%d/f=%d/%s", nf.n, nf.f, name), func(t *testing.T) {
				eng := steadyEngine(t, nf.n, adv, byzMiddle(t, nf.f, equivocators))
				if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
					t.Errorf("steady-state Byzantine round allocated %g times per round, want 0", avg)
				}
			})
		}
	}
	// RandomNoise keeps no scratch of its own: it draws straight into the
	// engine's storage, reading every receiver's phase off the live view.
	t.Run("dbac/n=16/f=3/noise", func(t *testing.T) {
		eng := steadyEngine(t, 16, byzDegree(16, 3),
			byzMiddle(t, 3, func(node int) anondyn.Strategy { return anondyn.RandomNoise(int64(node)) }))
		if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
			t.Errorf("steady-state RandomNoise round allocated %g times per round, want 0", avg)
		}
	})
}

// stageProbe forwards an in-place adversary and, while probing, notes
// whether a round was rendered on the sim pipeline's build stage.
type stageProbe struct {
	anondyn.InPlaceAdversary
	probing bool
	onStage bool
}

func (p *stageProbe) EdgesInto(t int, view adversary.View, dst *anondyn.EdgeSet) {
	if p.probing && strings.Contains(string(debug.Stack()), "buildStage).serve") {
		p.onStage = true
	}
	p.InPlaceAdversary.EdgesInto(t, view, dst)
}

func (p *stageProbe) Oblivious() bool { return true }

// TestSteadyRoundAllocBudgetMetrics holds the same budget with a live
// Collector attached: the engine's emitRound builds its RoundSample on
// the stack and the Collector's hot path is all atomics, so enabling
// metrics must not add a single amortized allocation to the steady
// round — on the dense path and the forced-CSR path alike.
func TestSteadyRoundAllocBudgetMetrics(t *testing.T) {
	attach := func(coll *metrics.Collector) func(*sim.Config) {
		return func(cfg *sim.Config) { cfg.Hooks.Metrics = coll }
	}
	for name, mk := range steadyAdversaries() {
		t.Run(name, func(t *testing.T) {
			coll := metrics.NewCollector()
			eng := steadyEngine(t, 9, mk(), attach(coll))
			if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
				t.Errorf("metrics-enabled round allocated %g times per round, want 0", avg)
			}
			if snap := coll.Snapshot(); snap.Rounds == 0 {
				t.Error("collector saw no rounds")
			}
		})
	}
	t.Run("dbac/n=51/f=10/byzdeg", func(t *testing.T) {
		coll := metrics.NewCollector()
		eng := steadyEngine(t, 51, byzDegree(51, 10), byzMiddle(t, 10, equivocators), attach(coll))
		if avg := testing.AllocsPerRun(200, eng.Step); avg != 0 {
			t.Errorf("metrics-enabled Byzantine round allocated %g times per round, want 0", avg)
		}
		if snap := coll.Snapshot(); snap.Rounds == 0 || snap.Delivered == 0 {
			t.Errorf("collector saw nothing: rounds=%d delivered=%d", snap.Rounds, snap.Delivered)
		}
	})
	for name, build := range map[string]func(testing.TB, int, anondyn.Adversary, ...func(*sim.Config)) *sim.Engine{
		"er2/n=1025/csr":            steadyEngine,
		"population/er2/n=1025/csr": steadyPopulation,
	} {
		t.Run(name, func(t *testing.T) {
			coll := metrics.NewCollector()
			eng := build(t, 1025, anondyn.SparseProbabilistic(8.0/1025, 1),
				func(cfg *sim.Config) { cfg.ForceCSR = true }, attach(coll))
			if avg := testing.AllocsPerRun(50, eng.Step); avg != 0 {
				t.Errorf("metrics-enabled round allocated %g times per round, want 0", avg)
			}
			if snap := coll.Snapshot(); snap.Rounds == 0 || snap.Delivered == 0 {
				t.Errorf("collector saw nothing: rounds=%d delivered=%d", snap.Rounds, snap.Delivered)
			}
		})
	}
}

// BenchmarkEngineSteadyRound measures one steady-state round in
// isolation (no run setup, no decisions) — the purest view of the
// round-loop cost. Expect 0 allocs/op.
func BenchmarkEngineSteadyRound(b *testing.B) {
	for name, mk := range steadyAdversaries() {
		for _, n := range []int{9, 25, 51} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				eng := steadyEngine(b, n, mk())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
		}
	}
}

// engineRoundCases is the BenchmarkEngineRound grid: the historical
// size axis on the complete graph plus a graph-density axis — at n=51
// (Erdős–Rényi at two densities, a d-regular rotating graph), at
// n=1025 and n=4097 with ~8 expected in-links per node (er2, the
// geometric-skip sparse sampler) and a rotating d=4 graph, and the CSR
// regime at n=16385 and n=65537 where the per-round graph lives in
// sparse CSR form and the round loop gathers each receiver's
// DeliverAll slice off its in-CSR row. The density axis is what shows round cost scaling
// with edges rather than n²: ns/edge must stay roughly flat from
// n=1025 to n=65537 (an n²-proportional round loop would grow it
// 64×). Rows above the convergence horizon cap their round budget — a
// few hundred steady rounds measure the per-round cost; running DAC to
// decision at n=65537 would add minutes without changing the metric.
// The dbac rows are the
// Byzantine sweep's largest cell — DBAC at n=51 with f=10 equivocators
// placed `middle`, 40 phases — on the complete graph and on the
// randomized (5, ⌊(n+3f)/2⌋)-dynaDegree one: they put allocs/op and
// ns/edge of the faulted dense round under the gate. The crash rows
// price the crash round: DAC at n=51 on er:0.3 with a clean crash in
// round 2 and a partial one in round 5, and DAC at n=16385 on er2:8/n
// with a quarter of the nodes crashing silently in four waves — both on
// the direct gather, which skips the dead senders and counts lost
// messages as it goes. The storm row is the storm-10k workload's round
// without its harness: DAC at n=10000 on er2:0.004 for 60 rounds, with
// ¾ of the nodes crashing silently in four doubling waves (500, 1 000,
// 2 000 and 4 000 nodes at rounds 5, 11, 17 and 23), so most of its
// rounds prune the dead nodes' links before the receiver-major build.
func engineRoundCases() []struct {
	name      string
	n         int
	f         int // > 0: DBAC with f equivocators instead of fault-free DAC
	maxRounds int // 0: run to decision
	adv       func() anondyn.Adversary
	crashes   func(n int) map[int]anondyn.Crash // nil: no crash
} {
	complete := func() anondyn.Adversary { return anondyn.Complete() }
	er2 := func(n int) func() anondyn.Adversary {
		return func() anondyn.Adversary { return anondyn.SparseProbabilistic(8.0/float64(n), 1) }
	}
	d4 := func() anondyn.Adversary { return anondyn.Rotating(4) }
	twoCrashes := func(int) map[int]anondyn.Crash {
		return map[int]anondyn.Crash{7: anondyn.CrashAt(2), 30: anondyn.CrashPartial(5, 0, 1, 2)}
	}
	waves := func(n int) map[int]anondyn.Crash {
		c := make(map[int]anondyn.Crash, n/4)
		for k := 0; k < n/4; k++ {
			c[4*k] = anondyn.CrashSilent(8 + k%4*8)
		}
		return c
	}
	storm := func(n int) map[int]anondyn.Crash {
		c := make(map[int]anondyn.Crash, 3*n/4)
		k := 0
		for wave, count := range []int{n / 20, n / 10, n / 5, 2 * n / 5} {
			for ; count > 0; count-- {
				c[k*7919%n] = anondyn.CrashSilent(5 + 6*wave) // 7919 is prime: victims spread over the IDs
				k++
			}
		}
		return c
	}
	return []struct {
		name      string
		n         int
		f         int
		maxRounds int
		adv       func() anondyn.Adversary
		crashes   func(n int) map[int]anondyn.Crash
	}{
		{"n=7", 7, 0, 0, complete, nil},
		{"n=25", 25, 0, 0, complete, nil},
		{"n=51", 51, 0, 0, complete, nil},
		{"n=51/p=0.5", 51, 0, 0, func() anondyn.Adversary { return anondyn.Probabilistic(0.5, 1) }, nil},
		{"n=51/p=0.1", 51, 0, 0, func() anondyn.Adversary { return anondyn.Probabilistic(0.1, 1) }, nil},
		{"n=51/d=4", 51, 0, 0, d4, nil},
		{"n=51/p=0.3/crash", 51, 0, 0, func() anondyn.Adversary { return anondyn.Probabilistic(0.3, 1) }, twoCrashes},
		{"dbac/n=51/f=10/complete", 51, 10, 0, complete, nil},
		{"dbac/n=51/f=10/byzdeg", 51, 10, 0, func() anondyn.Adversary { return byzDegree(51, 10) }, nil},
		{"n=1025/p=8n", 1025, 0, 0, er2(1025), nil},
		{"n=1025/d=4", 1025, 0, 0, d4, nil},
		{"n=4097/p=8n", 4097, 0, 0, er2(4097), nil},
		{"n=4097/d=4", 4097, 0, 0, d4, nil},
		{"n=16385/p=8n", 16385, 0, 256, er2(16385), nil},
		{"n=16385/p=8n/crash", 16385, 0, 256, er2(16385), waves},
		{"n=10000/p=40n/storm", 10000, 0, 60, func() anondyn.Adversary { return anondyn.SparseProbabilistic(0.004, 1) }, storm},
		{"n=16385/d=4", 16385, 0, 256, d4, nil},
		{"n=65537/p=8n", 65537, 0, 128, er2(65537), nil},
		{"n=65537/d=4", 65537, 0, 128, d4, nil},
	}
}

// BenchmarkEngineRound measures simulator round throughput: one full
// run per case (DAC, round-capped at CSR scale; DBAC against
// equivocators on the dbac rows), amortized per round and per delivered
// edge — ns/edge is the density-axis invariant the CSR core is gated on.
func BenchmarkEngineRound(b *testing.B) {
	for _, c := range engineRoundCases() {
		b.Run(c.name, func(b *testing.B) {
			benchRuns(b, func() anondyn.Scenario {
				s := anondyn.Scenario{
					N: c.n, F: 0, Eps: 1e-3,
					Algorithm: anondyn.AlgoDAC,
					Inputs:    anondyn.SpreadInputs(c.n),
					Adversary: c.adv(),
					MaxRounds: c.maxRounds,
				}
				if c.crashes != nil {
					s.Crashes = c.crashes(c.n)
				}
				if c.f > 0 {
					s.F, s.Algorithm, s.PEndOverride = c.f, anondyn.AlgoDBAC, 40
					s.Byzantine = make(map[int]anondyn.Strategy, c.f)
					for id := c.n / 2; id < c.n/2+c.f; id++ {
						s.Byzantine[id] = equivocators(id)
					}
				}
				return s
			})
		})
	}
}

// benchRuns runs one fresh scenario per iteration and reports the time
// per executed round and per delivered edge.
func benchRuns(b *testing.B, mk func() anondyn.Scenario) {
	b.ReportAllocs()
	rounds, edges := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := mk().Run()
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
		edges += res.MessagesDelivered
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// BenchmarkEngineRun prices the two-stage round pipeline on the n=16385
// rows of BenchmarkEngineRound (DAC, 256 rounds, er2:8/n and
// rotating:4): /pipelined is Scenario.Run as is, building each next
// round's graph on an idle core while the current round delivers;
// /gomaxprocs=1 is the same run with no idle core, which keeps it on one
// goroutine — the sequential baseline, with no knob. Their ratio is the
// overlap; on a one-core runner the rows coincide. Those runs never leave
// phase 0 (quorum 8193, at most 2048 distinct ports heard), so
// n=2049/p=8n/decide prices the other regime: er2:8/n run to decision at
// output phase 4, where every phase ends in a quorum and a population
// node's port log fills and turns into the bitset every phase.
func BenchmarkEngineRun(b *testing.B) {
	b.Run("n=2049/p=8n/decide", func(b *testing.B) {
		const n = 2049
		benchRuns(b, func() anondyn.Scenario {
			return anondyn.Scenario{
				N: n, PEndOverride: 4,
				Algorithm: anondyn.AlgoDAC,
				Inputs:    anondyn.SpreadInputs(n),
				Adversary: anondyn.SparseProbabilistic(8.0/n, 1),
			}
		})
	})
	const n = 16385
	for _, c := range []struct {
		name string
		adv  func() anondyn.Adversary
	}{
		{"n=16385/p=8n", func() anondyn.Adversary { return anondyn.SparseProbabilistic(8.0/n, 1) }},
		{"n=16385/d=4", func() anondyn.Adversary { return anondyn.Rotating(4) }},
	} {
		for _, procs := range []int{0, 1} {
			name := c.name + "/pipelined"
			if procs == 1 {
				name = c.name + "/gomaxprocs=1"
			}
			b.Run(name, func(b *testing.B) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				benchRuns(b, func() anondyn.Scenario {
					return anondyn.Scenario{
						N: n, Eps: 1e-3,
						Algorithm: anondyn.AlgoDAC,
						Inputs:    anondyn.SpreadInputs(n),
						Adversary: c.adv(),
						MaxRounds: 256,
					}
				})
			})
		}
	}
}

// BenchmarkEngineRoundCompiled is BenchmarkEngineRound on the
// compile-once path: the scenario is compiled before the loop, so each
// iteration recycles the engine and the DAC processes and pays only the
// run itself — the per-seed cost a Monte-Carlo worker actually sees.
func BenchmarkEngineRoundCompiled(b *testing.B) {
	for _, n := range []int{7, 25, 51} {
		b.Run(sizeName(n), func(b *testing.B) {
			cs, err := anondyn.Scenario{
				N: n, F: 0, Eps: 1e-3,
				Algorithm: anondyn.AlgoDAC,
				Inputs:    anondyn.SpreadInputs(n),
				Adversary: anondyn.Complete(),
			}.Compile()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := cs.Run(int64(i), nil)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}

// BenchmarkDynaDegreeCheck measures the (T,D) checker on a recorded
// 512-round rotating trace.
func BenchmarkDynaDegreeCheck(b *testing.B) {
	n := 25
	res, err := anondyn.Scenario{
		N: n, F: 0, Eps: 0.5,
		Algorithm:    anondyn.AlgoDAC,
		PEndOverride: 1,
		Unchecked:    true,
		Inputs:       anondyn.SpreadInputs(n),
		Adversary:    anondyn.Rotating(3),
		KeepTrace:    true,
		MaxRounds:    512,
	}.Run()
	if err != nil {
		b.Fatal(err)
	}
	// Force the full budget of rounds by discarding decisions: rerun
	// rounds manually is overkill — pad the trace by repetition instead.
	tr := res.Trace
	for len(tr) < 512 {
		tr = append(tr, tr...)
	}
	tr = tr[:512]
	ff := make([]int, n)
	for i := range ff {
		ff[i] = i
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if anondyn.MaxDynaDegree(tr, ff, 8) < 3 {
			b.Fatal("property should hold")
		}
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }
