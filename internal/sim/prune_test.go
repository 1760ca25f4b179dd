package sim

import (
	"reflect"
	"runtime"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// crashHeavy schedules ¾ of n nodes to crash in four doubling waves, at
// rounds 2, 5, 8 and 11 — the storm workload's cascade at test scale —
// cycling through the three crash kinds: silent (the final broadcast
// reaches nobody), partial (only nodes 0 and 1) and clean (every
// out-neighbor). The victims are spread over the IDs by a stride
// coprime with n, so every row word has dead and live nodes.
func crashHeavy(n int) fault.Schedule {
	const stride = 37
	dead := 3 * n / 4
	s := make(fault.Schedule, dead)
	first := []int{0, dead / 15, 3 * dead / 15, 7 * dead / 15} // waves of 1, 2, 4 and 8 fifteenths
	for k := 0; k < dead; k++ {
		wave := 0
		for wave < 3 && k >= first[wave+1] {
			wave++
		}
		round := 2 + 3*wave
		node := (2 + k*stride) % n // nodes 0 and 1 survive: the partial crashes' receivers
		switch k % 3 {
		case 0:
			s[node] = fault.CrashSilent(round)
		case 1:
			s[node] = fault.CrashPartial(round, 0, 1)
		default:
			s[node] = fault.CrashAt(round)
		}
	}
	return s
}

// assertLiveLinks checks that the set holds only links from round-t
// senders to round-t receivers — what a prune leaves — and that the
// engine knows it.
func assertLiveLinks(t *testing.T, e *Engine, edges *network.EdgeSet, round int, label string) {
	t.Helper()
	if !edges.IsSparse() {
		t.Fatalf("%s: round %d's set is dense: nothing pruned it", label, round)
	}
	links := 0
	edges.ForEachEdge(func(u, v int) bool {
		links++
		if round > e.crashRound[u] || round >= e.crashRound[v] {
			t.Fatalf("%s: round %d's set holds %d→%d (crash rounds %d, %d)", label, round, u, v, e.crashRound[u], e.crashRound[v])
		}
		return true
	})
	if links == 0 {
		t.Fatalf("%s: round %d's set is empty: the check is vacuous", label, round)
	}
}

// hasDeadLink reports whether a round's set still holds a link a prune
// would drop.
func hasDeadLink(e *Engine, edges *network.EdgeSet, round int) bool {
	dead := false
	edges.ForEachEdge(func(u, v int) bool {
		dead = round > e.crashRound[u] || round >= e.crashRound[v]
		return !dead
	})
	return dead
}

// TestPruneDropsOnlyDeadLinks runs a crash-heavy CSR configuration with
// ¾ of the nodes dead by round 11 every way a round can be rendered — a
// plain Step loop (the run goroutine prunes after openRound), a
// pipelined Run with KeepTrace or a Recorder (the build stage leaves
// the set whole and the run goroutine leaves it so: the gather skips
// the dead) and a pipelined Run with neither (the build stage prunes) —
// and checks each against the reference oracle, which prunes nothing:
// the same Result field for field, the same node states, and with a
// Recorder the same event stream, whose round events list E(t) whole.
// After the run, the last round's set holds only live links when it was
// pruned and still holds dead ones when it was not, and the kept trace
// still holds the dead ones.
func TestPruneDropsOnlyDeadLinks(t *testing.T) {
	atLeastTwoProcs(t)
	const n, rounds = 64, 30
	mk := func(keepTrace, record bool) (Config, *trace.Recorder) {
		cfg := Config{
			N: n, Procs: dacProcs(t, n, 40, spread(n)),
			Adversary: must(adversary.NewSparseProbabilistic(0.3, 11)),
			Crashes:   crashHeavy(n), MaxRounds: rounds, ForceCSR: true, KeepTrace: keepTrace,
		}
		var rec *trace.Recorder
		if record {
			rec = trace.NewRecorder()
			cfg.Hooks.Recorder = rec
		}
		return cfg, rec
	}
	for _, mode := range []struct {
		name      string
		keepTrace bool
		record    bool
		run       func(*Engine) *Result
		pruned    bool // the last round was pruned
		stage     bool // by the build stage
	}{
		{"step", true, false, stepRun, true, false},
		{"step/recorded", false, true, stepRun, true, false},
		{"pipelined/traced", true, false, (*Engine).Run, false, false},
		{"pipelined/recorded", false, true, (*Engine).Run, false, false},
		{"pipelined/untraced", false, false, (*Engine).Run, true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg, rec := mk(mode.keepTrace, mode.record)
			eng := must(NewEngine(cfg))
			got := mode.run(eng)
			refCfg, refRec := mk(mode.keepTrace, mode.record)
			ref := must(NewEngine(refCfg))
			want := referenceRun(ref)
			assertEqualResults(t, want, got, "%s vs reference", mode.name)
			assertEqualStates(t, ref, eng, "%s vs reference", mode.name)
			if rec != nil && !reflect.DeepEqual(rec.Events(), refRec.Events()) {
				t.Fatalf("%s: the event stream differs from the reference's", mode.name)
			}
			if got.Decided || got.Rounds != rounds {
				t.Fatalf("%s: rounds %d decided %v, want %d undecided (¾ of the nodes are dead)", mode.name, got.Rounds, got.Decided, rounds)
			}
			last := eng.round - 1
			if eng.pruned != mode.pruned {
				t.Fatalf("%s: round %d pruned = %v, want %v", mode.name, last, eng.pruned, mode.pruned)
			}
			if mode.pruned {
				assertLiveLinks(t, eng, eng.edges, last, mode.name)
			} else if !hasDeadLink(eng, eng.edges, last) {
				t.Fatalf("%s: round %d's set lost its dead links", mode.name, last)
			}
			if eng.prunedAhead != mode.stage {
				t.Fatalf("%s: build stage pruned = %v, want %v", mode.name, eng.prunedAhead, mode.stage)
			}
			if mode.keepTrace && !hasDeadLink(eng, got.Trace[last], last) {
				t.Fatalf("%s: the kept trace of round %d lost its dead links", mode.name, last)
			}
		})
	}
}

// TestPruneSequentialMatchesPipelined: at GOMAXPROCS=1 a crash-heavy Run
// stays on one goroutine and prunes there, and it matches the pipelined
// Run of the same configuration on every adversary shape — er2's
// ascending log, rotating's receiver-major one, and the storm-shaped
// Retain pass before the prune — the engine recycled across all of
// them.
func TestPruneSequentialMatchesPipelined(t *testing.T) {
	const n = 64
	advs := map[string]func() adversary.Adversary{
		"er2":      func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.3, 12)) },
		"rotating": func() adversary.Adversary { return must(adversary.NewRotating(9)) },
		"storm-shaped": func() adversary.Adversary {
			return &thinned{InPlace: must(adversary.NewSparseProbabilistic(0.3, 13))}
		},
	}
	mk := func(adv adversary.Adversary) Config {
		return Config{
			N: n, Procs: dacProcs(t, n, 40, spread(n)), Adversary: adv,
			Crashes: crashHeavy(n), MaxRounds: 30, ForceCSR: true,
		}
	}
	var seq, piped *Engine
	for pass := 0; pass < 2; pass++ {
		for name, adv := range advs {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				if seq == nil {
					seq = must(NewEngine(mk(adv())))
				} else if err := seq.Reset(mk(adv())); err != nil {
					t.Fatal(err)
				}
				seq.Run()
			}()
			if seq.spare != nil {
				t.Fatalf("%s: the GOMAXPROCS=1 run built ahead", name)
			}
			want := seq.finish()
			atLeastTwoProcs(t)
			if piped == nil {
				piped = must(NewEngine(mk(adv())))
			} else if err := piped.Reset(mk(adv())); err != nil {
				t.Fatal(err)
			}
			got := piped.Run()
			if !piped.prunedAhead {
				t.Fatalf("pass %d %s: the pipelined run's build stage did not prune", pass, name)
			}
			assertEqualResults(t, want, got, "pass %d %s: pipelined vs sequential", pass, name)
			assertEqualStates(t, seq, piped, "pass %d %s: pipelined vs sequential", pass, name)
			assertEqualResults(t, referenceRun(must(NewEngine(mk(adv())))), got, "pass %d %s: pipelined vs reference", pass, name)
		}
	}
}
