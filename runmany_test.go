package anondyn_test

import (
	"testing"

	"anondyn"
)

func TestRunMany(t *testing.T) {
	var results []*anondyn.Result
	var seeds []int64
	err := runFamily(func(seed int64) anondyn.Scenario {
		return anondyn.Scenario{
			N: 7, F: 3, Eps: 1e-3,
			Algorithm:   anondyn.AlgoDAC,
			Inputs:      anondyn.RandomInputs(7, seed),
			Adversary:   anondyn.Probabilistic(0.4, seed),
			RandomPorts: true,
			Seed:        seed,
			MaxRounds:   5000,
		}
	}, 10, 100, func(_ int, seed int64, res *anondyn.Result) error {
		seeds = append(seeds, seed)
		results = append(results, res)
		return nil
	}, anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 || len(seeds) != 10 {
		t.Fatalf("results/seeds = %d/%d", len(results), len(seeds))
	}
	for i, res := range results {
		if !res.Decided {
			t.Errorf("seed %d undecided", seeds[i])
			continue
		}
		if !res.Valid() || !res.EpsAgreement(1e-3) {
			t.Errorf("seed %d: safety violation", seeds[i])
		}
		if res.Rounds < 1 {
			t.Errorf("seed %d decided in %d rounds", seeds[i], res.Rounds)
		}
	}
}

func TestRunManyPropagatesErrors(t *testing.T) {
	err := runFamily(func(seed int64) anondyn.Scenario {
		return anondyn.Scenario{} // invalid
	}, 3, 0, (&anondyn.BatchStats{}).Consume, anondyn.BatchOptions{})
	if err == nil {
		t.Error("invalid scenario accepted")
	}
}
