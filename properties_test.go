package anondyn_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"anondyn"
	"anondyn/internal/adversary"
)

// End-to-end property tests: for randomized inputs, adversaries, fault
// patterns and port numberings, the three consensus properties of
// Definition 3 must hold whenever the run is within the paper's
// conditions (resilience bound + dynaDegree threshold).

// TestPropertyDACTheorem: random inputs, random crash schedules within
// f, randomized degree-guaranteeing adversaries, random ports — DAC must
// terminate, stay valid, and ε-agree (Theorems in §IV).
func TestPropertyDACTheorem(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(101))}
	property := func(seed int64, nRaw, advPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8*2 + 5 // odd sizes 5..19
		f := (n - 1) / 2
		eps := 1e-3

		// Random crash schedule within the budget.
		crashes := make(map[int]anondyn.Crash)
		nCrash := rng.Intn(f + 1)
		perm := rng.Perm(n)
		for i := 0; i < nCrash; i++ {
			node := perm[i]
			switch rng.Intn(3) {
			case 0:
				crashes[node] = anondyn.CrashAt(rng.Intn(12))
			case 1:
				crashes[node] = anondyn.CrashSilent(rng.Intn(12))
			default:
				// Partial delivery to a random subset.
				var subset []int
				for v := 0; v < n; v++ {
					if v != node && rng.Intn(2) == 0 {
						subset = append(subset, v)
					}
				}
				crashes[node] = anondyn.CrashPartial(rng.Intn(12), subset...)
			}
		}

		var adv anondyn.Adversary
		switch advPick % 3 {
		case 0:
			adv = anondyn.Complete()
		case 1:
			adv = anondyn.Rotating(anondyn.CrashDegree(n))
		default:
			adv = anondyn.RandomDegree(3, anondyn.CrashDegree(n), 0.1, seed)
		}

		res, err := anondyn.Scenario{
			N: n, F: f, Eps: eps,
			Algorithm:   anondyn.AlgoDAC,
			Inputs:      anondyn.RandomInputs(n, seed+1),
			Adversary:   adv,
			Crashes:     crashes,
			RandomPorts: true,
			Seed:        seed + 2,
			MaxRounds:   5000,
		}.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.Decided {
			t.Logf("seed %d n=%d: undecided in %d rounds", seed, n, res.Rounds)
			return false
		}
		if !res.Valid() {
			t.Logf("seed %d n=%d: validity violated: %v", seed, n, res.Outputs)
			return false
		}
		if !res.EpsAgreement(eps) {
			t.Logf("seed %d n=%d: range %g > ε", seed, n, res.OutputRange())
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyDBACTheorem: random Byzantine strategies within f under
// threshold-degree adversaries — DBAC must terminate, stay inside the
// fault-free hull, and converge (§V).
func TestPropertyDBACTheorem(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(202))}
	property := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nfs := []struct{ n, f int }{{6, 1}, {11, 2}, {16, 3}}
		nf := nfs[int(pick)%len(nfs)]
		n, f := nf.n, nf.f
		eps := 1e-2

		byz := make(map[int]anondyn.Strategy)
		perm := rng.Perm(n)
		strategies := []anondyn.Strategy{
			anondyn.Silent(),
			anondyn.Extremist(float64(rng.Intn(2))),
			anondyn.Equivocator(0, 1),
			anondyn.RandomNoise(seed),
			anondyn.Laggard(rng.Float64()),
		}
		for i := 0; i < f; i++ {
			byz[perm[i]] = strategies[rng.Intn(len(strategies))]
		}

		var adv anondyn.Adversary
		if pick%2 == 0 {
			adv = anondyn.Complete()
		} else {
			adv = anondyn.Rotating(anondyn.ByzDegree(n, f))
		}

		inputs := anondyn.RandomInputs(n, seed+1)
		res, err := anondyn.Scenario{
			N: n, F: f, Eps: eps,
			Algorithm:    anondyn.AlgoDBAC,
			PEndOverride: 16,
			Inputs:       inputs,
			Adversary:    adv,
			Byzantine:    byz,
			RandomPorts:  true,
			Seed:         seed + 2,
			MaxRounds:    5000,
		}.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.Decided {
			t.Logf("seed %d n=%d: undecided", seed, n)
			return false
		}
		// Validity against the NON-Byzantine hull only.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range inputs {
			if _, isByz := byz[i]; isByz {
				continue
			}
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		for _, node := range res.FaultFree {
			v := res.Outputs[node]
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Logf("seed %d: output %g outside non-Byzantine hull [%g,%g]", seed, v, lo, hi)
				return false
			}
		}
		// 16 phases at rate ≈1/2 crushes the range far below ε=1e-2.
		if !res.EpsAgreement(eps) {
			t.Logf("seed %d: range %g > ε", seed, res.OutputRange())
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyRecordedDynaDegree: whatever a degree-guaranteeing
// adversary actually produced, the recorded trace must verify the
// property it promises.
func TestPropertyRecordedDynaDegree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(303))}
	property := func(seed int64, dRaw, bRaw uint8) bool {
		n := 9
		d := int(dRaw)%(n-1) + 1
		block := int(bRaw)%4 + 1
		res, err := anondyn.Scenario{
			N: n, F: 0, Eps: 0.5,
			Algorithm:    anondyn.AlgoDAC,
			PEndOverride: 2,
			Unchecked:    true,
			Inputs:       anondyn.RandomInputs(n, seed),
			Adversary:    anondyn.RandomDegree(block, d, 0.05, seed),
			KeepTrace:    true,
			MaxRounds:    6 * block,
		}.Run()
		if err != nil {
			return false
		}
		if len(res.Trace) < 2*block-1 {
			return true // not enough rounds recorded to check a window
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return anondyn.MaxDynaDegree(res.Trace, all, 2*block-1) >= d
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// registryArgs holds one argument per adversary registry name: the spec
// "name:arg" (or the bare name for an empty argument) builds a product
// of each name for TestPropertyValueIndependence to classify.
var registryArgs = map[string]string{
	"chasemin":     "",
	"clustered":    "4",
	"complete":     "",
	"er":           "0.3",
	"er2":          "0.3",
	"fig1":         "",
	"halves":       "",
	"isolate":      "0",
	"random":       "3,crashdeg",
	"rotating":     "crashdeg",
	"starve":       "crashdeg",
	"starveperiod": "3",
	// Registered by TestRegisterAdversaryFactory when it runs first.
	testFactoryName: "",
}

// TestPropertyValueIndependence: DAC's transitions (the jump rule and
// the quorum) read phases and ports, never values, so under an
// oblivious adversary a run's round count, decide rounds and message
// counts cannot depend on the inputs. Every registry factory whose
// product is oblivious runs DAC and its no-jump ablation with and
// without E10's two crashes, once per input vector, through one Grid;
// only the outputs may differ between the two passes.
func TestPropertyValueIndependence(t *testing.T) {
	var oblivious []anondyn.AdversaryFactory
	for _, name := range anondyn.AdversaryFactoryNames() {
		arg, ok := registryArgs[name]
		if !ok {
			t.Errorf("registry name %q has no argument in registryArgs", name)
			continue
		}
		spec := name
		if arg != "" {
			spec += ":" + arg
		}
		f, err := anondyn.ParseAdversaryFactory(spec)
		if err != nil {
			t.Fatal(err)
		}
		if adversary.IsOblivious(f.New(anondyn.Cell{N: 9, F: 2}, 1)) {
			oblivious = append(oblivious, f)
		}
	}
	if len(oblivious) == 0 {
		t.Fatal("no oblivious factory in the registry")
	}
	e10Crashes := map[int]anondyn.Crash{2: anondyn.CrashAt(4), 5: anondyn.CrashAt(9)}
	grid := anondyn.Grid{
		// fig1 is defined on n = 3 only, where the run is fault-free;
		// n = 9 carries E10's f = 2.
		Ns:          []int{3, 9},
		Fs:          []int{0, 2},
		Algorithms:  []anondyn.Algo{anondyn.AlgoDAC, anondyn.AlgoDACNoJump},
		Adversaries: oblivious,
		Variants: []anondyn.Variant{
			{Name: "no crashes"},
			{Name: "E10 crashes", Apply: func(s *anondyn.Scenario) { s.Crashes = e10Crashes }},
		},
		SeedsPerCell: 10,
		MaxRounds:    500,
		Skip: func(c anondyn.Cell) bool {
			if c.N == 3 && (c.F != 0 || c.Variant.Apply != nil) || c.N == 9 && c.F != 2 {
				return true
			}
			return c.Adversary.Check != nil && c.Adversary.Check(c) != nil
		},
	}
	run := func(inputs func(n int, seed int64) []float64) []*anondyn.Result {
		g := grid
		g.Inputs = inputs
		results := make([]*anondyn.Result, g.Runs())
		err := g.RunEach(anondyn.BatchOptions{}, func(_ anondyn.Cell, _, run int, _ int64, res *anondyn.Result) error {
			results[run] = res
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	first := run(anondyn.RandomInputs)
	second := run(func(n int, seed int64) []float64 { return anondyn.RandomInputs(n, ^seed) })
	per := grid.SeedsPerCell
	cells := grid.Cells()
	outputsMoved := 0
	for i, a := range first {
		b := second[i]
		c := cells[i/per]
		label := fmt.Sprintf("n=%d %v %s %s run %d", c.N, c.Algorithm, c.Adversary.Name, c.Variant.Name, i)
		if a.Rounds != b.Rounds || a.Decided != b.Decided || !reflect.DeepEqual(a.DecideRound, b.DecideRound) ||
			a.MessagesDelivered != b.MessagesDelivered || a.MessagesLost != b.MessagesLost {
			t.Errorf("%s: timing depends on the inputs: rounds %d/%d, delivered %d/%d, lost %d/%d, decide rounds %v/%v",
				label, a.Rounds, b.Rounds, a.MessagesDelivered, b.MessagesDelivered,
				a.MessagesLost, b.MessagesLost, a.DecideRound, b.DecideRound)
		}
		if !reflect.DeepEqual(a.Outputs, b.Outputs) {
			outputsMoved++
		}
	}
	// The check is vacuous unless the second input vector changed what
	// the runs computed.
	if outputsMoved == 0 {
		t.Error("no run's outputs differ between the two input vectors")
	}
	t.Logf("%d oblivious factories, %d cells, %d run pairs, %d with different outputs",
		len(oblivious), len(cells), len(first), outputsMoved)
}

// TestDynaDegreeCountsCrashedSenders pins a counterexample for the
// crash theorem's degree condition as MaxDynaDegree measures it: links
// from crashed senders count (Definition 1 does not ask the sender to
// be fault-free), so a trace can measure (1, ⌊n/2⌋)-dynaDegree while
// every link a fault-free node hears is from a crashed node. Here n = 5,
// f = 2, nodes 0 and 1 crash silently before round 0, and every round
// is {0, 1} → {2, 3, 4}: the measured degree is 2 = ⌊n/2⌋, yet the
// survivors never hear anyone and DAC cannot decide. So a measured
// (T, ⌊n/2⌋) alone does not promise termination.
func TestDynaDegreeCountsCrashedSenders(t *testing.T) {
	const n, f = 5, 2
	e := anondyn.NewEdgeSet(n)
	for _, from := range []int{0, 1} {
		for _, to := range []int{2, 3, 4} {
			e.Add(from, to)
		}
	}
	res, err := anondyn.Scenario{
		N: n, F: f, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(n),
		Adversary: anondyn.Periodic("crashed-senders", e),
		Crashes:   map[int]anondyn.Crash{0: anondyn.CrashSilent(0), 1: anondyn.CrashSilent(0)},
		KeepTrace: true,
		MaxRounds: 200,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := anondyn.MaxDynaDegree(res.Trace, res.FaultFree, 1); d != n/2 {
		t.Errorf("MaxDynaDegree(trace, H=%v, 1) = %d, want ⌊n/2⌋ = %d", res.FaultFree, d, n/2)
	}
	if res.Decided {
		t.Errorf("DAC decided in %d rounds with every heard link from a crashed sender", res.Rounds)
	}
	if res.Rounds != 200 || res.MessagesDelivered != 0 {
		t.Errorf("ran %d rounds delivering %d messages, want 200 rounds and none", res.Rounds, res.MessagesDelivered)
	}
}
