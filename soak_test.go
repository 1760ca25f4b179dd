package anondyn_test

import (
	"math/rand"
	"testing"

	"anondyn"
)

// TestSoakRandomScenarios is the failure-injection sweep: several
// hundred randomly composed scenarios (algorithm, size, adversary,
// crash/Byzantine pattern, ports) within the paper's conditions, every
// one of which must decide, stay valid, and ε-agree. Shrunk under
// -short.
func TestSoakRandomScenarios(t *testing.T) {
	iterations := 300
	if testing.Short() {
		iterations = 40
	}
	rng := rand.New(rand.NewSource(20260612))
	for i := 0; i < iterations; i++ {
		seed := rng.Int63()
		if i%2 == 0 {
			soakDAC(t, i, seed)
		} else {
			soakDBAC(t, i, seed)
		}
	}
}

func soakDAC(t *testing.T, iter int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(9)*2 + 5 // odd 5..21
	f := (n - 1) / 2
	eps := []float64{1e-2, 1e-3, 1e-4}[rng.Intn(3)]

	var adv anondyn.Adversary
	switch rng.Intn(5) {
	case 0:
		adv = anondyn.Complete()
	case 1:
		adv = anondyn.Rotating(anondyn.CrashDegree(n) + rng.Intn(n/2))
	case 2:
		adv = anondyn.RandomDegree(rng.Intn(3)+1, anondyn.CrashDegree(n), rng.Float64()*0.2, seed)
	case 3:
		adv = anondyn.Clustered(rng.Intn(5) + 1)
	default:
		adv = anondyn.Probabilistic(0.3+rng.Float64()*0.7, seed)
	}

	crashes := make(map[int]anondyn.Crash)
	perm := rng.Perm(n)
	for j := 0; j < rng.Intn(f+1); j++ {
		node := perm[j]
		round := rng.Intn(15)
		switch rng.Intn(3) {
		case 0:
			crashes[node] = anondyn.CrashAt(round)
		case 1:
			crashes[node] = anondyn.CrashSilent(round)
		default:
			var subset []int
			for v := 0; v < n; v++ {
				if v != node && rng.Intn(2) == 0 {
					subset = append(subset, v)
				}
			}
			crashes[node] = anondyn.CrashPartial(round, subset...)
		}
	}

	s := anondyn.Scenario{
		N: n, F: f, Eps: eps,
		Algorithm:   anondyn.AlgoDAC,
		Inputs:      anondyn.RandomInputs(n, seed),
		Adversary:   adv,
		Crashes:     crashes,
		RandomPorts: rng.Intn(2) == 0,
		Seed:        seed,
		MaxRounds:   60000,
	}
	if iter%10 == 0 {
		s.ForceCSR = true // sprinkle CSR rounds in
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("iter %d (seed %d): %v", iter, seed, err)
	}
	checkSoak(t, iter, seed, "DAC", res, eps)
}

func soakDBAC(t *testing.T, iter int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nfs := []struct{ n, f int }{{6, 1}, {11, 2}, {16, 3}, {21, 4}}
	nf := nfs[rng.Intn(len(nfs))]
	n, f := nf.n, nf.f
	eps := 1e-2

	var adv anondyn.Adversary
	if rng.Intn(2) == 0 {
		adv = anondyn.Complete()
	} else {
		adv = anondyn.Rotating(anondyn.ByzDegree(n, f))
	}

	byz := make(map[int]anondyn.Strategy)
	perm := rng.Perm(n)
	nByz := rng.Intn(f + 1)
	for j := 0; j < nByz; j++ {
		node := perm[j]
		switch rng.Intn(5) {
		case 0:
			byz[node] = anondyn.Silent()
		case 1:
			byz[node] = anondyn.Extremist(float64(rng.Intn(2)))
		case 2:
			byz[node] = anondyn.Equivocator(0, 1)
		case 3:
			byz[node] = anondyn.RandomNoise(seed + int64(node))
		default:
			byz[node] = anondyn.Laggard(rng.Float64())
		}
	}
	// Spend the rest of the budget on crashes (hybrid faults).
	crashes := make(map[int]anondyn.Crash)
	for j := nByz; j < f; j++ {
		crashes[perm[j]] = anondyn.CrashAt(rng.Intn(10))
	}

	res, err := anondyn.Scenario{
		N: n, F: f, Eps: eps,
		Algorithm:    anondyn.AlgoDBAC,
		PEndOverride: 14,
		Inputs:       anondyn.RandomInputs(n, seed),
		Adversary:    adv,
		Byzantine:    byz,
		Crashes:      crashes,
		RandomPorts:  rng.Intn(2) == 0,
		Seed:         seed,
		MaxRounds:    20000,
	}.Run()
	if err != nil {
		t.Fatalf("iter %d (seed %d): %v", iter, seed, err)
	}
	checkSoak(t, iter, seed, "DBAC", res, eps)
}

func checkSoak(t *testing.T, iter int, seed int64, algo string, res *anondyn.Result, eps float64) {
	t.Helper()
	if !res.Decided {
		t.Errorf("iter %d (%s, seed %d): undecided after %d rounds", iter, algo, seed, res.Rounds)
		return
	}
	if !res.Valid() {
		t.Errorf("iter %d (%s, seed %d): validity violated: %v", iter, algo, seed, res.Outputs)
	}
	if !res.EpsAgreement(eps) {
		t.Errorf("iter %d (%s, seed %d): range %g > ε=%g", iter, algo, seed, res.OutputRange(), eps)
	}
}
