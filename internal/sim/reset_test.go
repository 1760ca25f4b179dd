package sim

import (
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// resetCase builds one fresh Config per call; adversaries and processes
// carry state and must never be shared between runs.
type resetCase struct {
	name string
	mk   func(t *testing.T) Config
}

func resetCases() []resetCase {
	return []resetCase{
		{"dac-rotating-crash", func(t *testing.T) Config {
			rot, err := adversary.NewRotating(4)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				N:         9,
				Procs:     dacProcs(t, 9, 8, spread(9)),
				Adversary: rot,
				Crashes:   fault.Schedule{2: fault.CrashPartial(3, 0, 1)},
			}
		}},
		{"dac-er-shuffle", func(t *testing.T) Config {
			er, err := adversary.NewProbabilistic(0.5, 77)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				N:               9,
				Procs:           dacProcs(t, 9, 8, spread(9)),
				Adversary:       er,
				ShuffleDelivery: true,
				ShuffleSeed:     5,
				MaxRounds:       4000,
			}
		}},
		{"dbac-byzantine-ports", func(t *testing.T) Config {
			byz := map[int]fault.Strategy{3: fault.Extremist{Value: 1}}
			return Config{
				N:         11,
				F:         2,
				Procs:     dbacProcs(t, 11, 2, 6, spread(11), byz),
				Byzantine: byz,
				Adversary: adversary.NewComplete(),
				Ports:     network.RandomPorts(11, newRand(9)),
			}
		}},
		{"dac-bandwidth-capped", func(t *testing.T) Config {
			return Config{
				N:                7,
				Procs:            dacProcs(t, 7, 6, spread(7)),
				Adversary:        adversary.NewComplete(),
				AccountBandwidth: true,
				MaxMessageBytes:  16,
			}
		}},
	}
}

func sameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestEngineResetMatchesFresh: an engine Reset onto a configuration must
// reproduce a fresh engine's Result bit for bit — including when the
// Reset follows an unrelated run that dirtied every piece of scratch.
func TestEngineResetMatchesFresh(t *testing.T) {
	for _, tc := range resetCases() {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := NewEngine(tc.mk(t))
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Run()

			// Dirty an engine with a different-shaped run first.
			eng, err := NewEngine(Config{
				N:         5,
				Procs:     dacProcs(t, 5, 4, spread(5)),
				Adversary: adversary.NewComplete(),
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if err := eng.Reset(tc.mk(t)); err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, eng.Run(), "reset after different-n run")

			// Same-shape recycle (the batch worker's steady state).
			if err := eng.Reset(tc.mk(t)); err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, eng.Run(), "reset after same-n run")
		})
	}
}

// TestEngineResetRejectsInvalid: a failed Reset must surface the
// configuration error a fresh construction would.
func TestEngineResetRejectsInvalid(t *testing.T) {
	eng, err := NewEngine(Config{
		N:         5,
		Procs:     dacProcs(t, 5, 4, spread(5)),
		Adversary: adversary.NewComplete(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(Config{N: 3}); err == nil {
		t.Fatal("Reset accepted a config with no adversary and no procs")
	}
}

// TestResultDetachedFromEngine: a Result returned by Run must not change
// when the engine is recycled — batch sinks retain Results while the
// worker's engine moves on to the next seed.
func TestResultDetachedFromEngine(t *testing.T) {
	mk := func(input float64) Config {
		in := spread(7)
		in[0] = input
		return Config{
			N:         7,
			Procs:     dacProcs(t, 7, 6, in),
			Adversary: adversary.NewComplete(),
		}
	}
	eng, err := NewEngine(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Run()
	snapshot := *first
	outputs := make(map[int]float64, len(first.Outputs))
	for k, v := range first.Outputs {
		outputs[k] = v
	}

	if err := eng.Reset(mk(1)); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if first.Rounds != snapshot.Rounds || first.Decided != snapshot.Decided {
		t.Error("recycling mutated a retained Result's counters")
	}
	if !reflect.DeepEqual(first.Outputs, outputs) {
		t.Error("recycling mutated a retained Result's outputs")
	}
}

// TestSteadyStateRoundAllocs is the allocation budget of the tentpole:
// a steady-state DAC round allocates nothing — on the benign complete
// graph, the §VII probabilistic adversary, a dense round after a silent
// crash (each a word round through core.PerNode at n = 9, behind the
// round's one BroadcastAll call), a CSR rotating:4 round, the word
// round of a core.PopulationOf population on er:0.3 after a silent
// crash, and that population's CSR rotating:4 round after one (pruned,
// one DeliverCSR call), and the Byzantine word round of a
// core.DBACPopulationOf population at n = 51, f = 10.
func TestSteadyStateRoundAllocs(t *testing.T) {
	const n = 9
	// A huge pEnd keeps every node busy forever: rounds stay steady-state.
	const pEnd = 1 << 20
	bigProcs := func() []core.Process {
		procs := make([]core.Process, n)
		for i := 0; i < n; i++ {
			d, err := core.NewDACPhases(n, i, pEnd, spread(n)[i])
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = d
		}
		return procs
	}
	cases := map[string]struct {
		cfg        func() Config
		population bool // drive a NewDACPopulation network through core.PopulationOf
	}{
		"complete": {cfg: func() Config { return Config{Adversary: adversary.NewComplete()} }},
		"er": {cfg: func() Config {
			return Config{Adversary: must(adversary.NewProbabilistic(0.5, 3))}
		}},
		"dense-silent-crash": {cfg: func() Config {
			return Config{Adversary: adversary.NewComplete(), Crashes: fault.Schedule{4: fault.CrashSilent(2)}}
		}},
		"csr-rotating": {cfg: func() Config {
			return Config{Adversary: must(adversary.NewRotating(4)), ForceCSR: true}
		}},
		"word-er-crash": {population: true, cfg: func() Config {
			return Config{Adversary: must(adversary.NewProbabilistic(0.3, 3)), Crashes: fault.Schedule{4: fault.CrashSilent(2)}}
		}},
		"csr-rotating-crash": {population: true, cfg: func() Config {
			return Config{Adversary: must(adversary.NewRotating(4)), ForceCSR: true, Crashes: fault.Schedule{4: fault.CrashSilent(2)}}
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.N, cfg.Procs, cfg.MaxRounds = n, bigProcs(), 1<<30
			pop := core.PerNode(cfg.Procs)
			if c.population {
				dacs := must(core.NewDACPopulation(pEnd, core.CrashQuorum(n), false, func(i int) int { return i }, spread(n), nil))
				for i := range cfg.Procs {
					cfg.Procs[i] = &dacs[i]
				}
				pop = core.PopulationOf(dacs)
			}
			eng := new(Engine)
			if err := eng.ResetPopulation(cfg, pop); err != nil {
				t.Fatal(err)
			}
			eng.RunRounds(32) // warm the delivery scratch
			avg := testing.AllocsPerRun(100, eng.Step)
			if avg != 0 {
				t.Errorf("steady-state round allocated %g times, want 0", avg)
			}
		})
	}
	// The Byzantine word round of a core.DBACPopulationOf population,
	// sweep-byz-dense's largest cell: n = 51 with f = 10 equivocators in
	// the middle of the IDs, on the complete graph and on random:3,byzdeg.
	const byzN, byzF = 51, 10
	for name, adv := range map[string]adversary.Adversary{
		"complete": adversary.NewComplete(),
		"byzdeg":   must(adversary.NewRandomDegree(3, core.ByzDegree(byzN, byzF), 0.05, 1)),
	} {
		t.Run("word-dbac-byz/"+name, func(t *testing.T) {
			byz := map[int]fault.Strategy{}
			for id := byzN / 2; id < byzN/2+byzF; id++ {
				byz[id] = fault.Equivocator{Low: 0, High: 1}
			}
			skip := func(i int) bool { _, ok := byz[i]; return ok }
			dbacs := must(core.NewDBACPopulation(byzF, pEnd, core.ByzQuorum(byzN, byzF), func(i int) int { return i }, spread(byzN), skip))
			procs := make([]core.Process, byzN)
			for i := range procs {
				if !skip(i) {
					procs[i] = &dbacs[i]
				}
			}
			cfg := Config{N: byzN, F: byzF, Procs: procs, Byzantine: byz, Adversary: adv, MaxRounds: 1 << 30}
			eng := new(Engine)
			if err := eng.ResetPopulation(cfg, core.DBACPopulationOf(dbacs)); err != nil {
				t.Fatal(err)
			}
			eng.RunRounds(32)
			if avg := testing.AllocsPerRun(100, eng.Step); avg != 0 {
				t.Errorf("steady-state Byzantine word round allocated %g times, want 0", avg)
			}
		})
	}
}
