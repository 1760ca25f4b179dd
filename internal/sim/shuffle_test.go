package sim

import (
	"math"
	"reflect"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
)

// TestShuffleOrderInsensitivity: the model leaves intra-round arrival
// order unspecified, so every delivery permutation must preserve the
// correctness properties (exact outputs may differ — DAC advances
// mid-round — but termination, validity and ε-agreement may not).
func TestShuffleOrderInsensitivity(t *testing.T) {
	n := 9
	eps := math.Pow(0.5, 8)
	for seed := int64(0); seed < 12; seed++ {
		rot, err := adversary.NewRotating(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			N:               n,
			Procs:           dacProcs(t, n, 8, spread(n)),
			Adversary:       rot,
			ShuffleDelivery: true,
			ShuffleSeed:     seed,
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.Decided {
			t.Fatalf("seed %d: undecided", seed)
		}
		if !res.Valid() {
			t.Errorf("seed %d: validity violated", seed)
		}
		if !res.EpsAgreement(eps) {
			t.Errorf("seed %d: range %g > %g", seed, res.OutputRange(), eps)
		}
	}
}

// TestShuffleDeterministicPerSeed: same seed → identical execution.
func TestShuffleDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) map[int]float64 {
		cfg := Config{
			N:               7,
			Procs:           dacProcs(t, 7, 8, spread(7)),
			Adversary:       adversary.NewComplete(),
			ShuffleDelivery: true,
			ShuffleSeed:     seed,
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.Decided {
			t.Fatal("undecided")
		}
		return res.Outputs
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same shuffle seed produced different executions")
	}
	c := run(6)
	same := reflect.DeepEqual(a, c)
	// Different seeds usually differ, but don't hard-require it (the
	// complete graph is fairly order-tolerant); just log.
	if same {
		t.Logf("seeds 5 and 6 coincided — acceptable, order-tolerant schedule")
	}
}

// TestShuffleEngineEquivalence: the reference oracle and the parallel
// round apply the same deterministic permutations as the engine.
func TestShuffleEngineEquivalence(t *testing.T) {
	mk := func(Observer) Config {
		rot, err := adversary.NewRotating(3)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			N:               7,
			Procs:           dacProcs(t, 7, 8, spread(7)),
			Adversary:       rot,
			ShuffleDelivery: true,
			ShuffleSeed:     99,
		}
	}
	runThreeWays(t, mk)
}

func TestShuffleDeliveriesHelper(t *testing.T) {
	mkDs := func() []core.Delivery {
		ds := make([]core.Delivery, 8)
		for i := range ds {
			ds[i] = core.Delivery{Port: i}
		}
		return ds
	}
	a, b := mkDs(), mkDs()
	shuffleDeliveries(a, 1, 3, 4)
	shuffleDeliveries(b, 1, 3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (seed,round,node) gave different permutations")
	}
	c := mkDs()
	shuffleDeliveries(c, 1, 3, 5) // different node
	if reflect.DeepEqual(a, c) {
		t.Error("different node gave the same permutation (stream collision)")
	}
	// Single-element and empty slices are no-ops.
	one := []core.Delivery{{Port: 0}}
	shuffleDeliveries(one, 1, 0, 0)
	shuffleDeliveries(nil, 1, 0, 0)
}
