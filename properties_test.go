package anondyn_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn"
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
