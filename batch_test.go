package anondyn_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"anondyn"
	"anondyn/internal/analysis"
)

// batchFamily is the scenario family shared by the determinism tests:
// seeded random inputs, a seeded probabilistic adversary, random ports
// — every source of randomness derives from the seed.
func batchFamily(seed int64) anondyn.Scenario {
	return anondyn.Scenario{
		N: 7, F: 3, Eps: 1e-3,
		Algorithm:        anondyn.AlgoDAC,
		Inputs:           anondyn.RandomInputs(7, seed),
		Adversary:        anondyn.Probabilistic(0.4, seed),
		RandomPorts:      true,
		Seed:             seed,
		MaxRounds:        5000,
		AccountBandwidth: true,
	}
}

// familyGrid maps a per-seed scenario family onto a one-cell Grid whose
// run j is mk(base+j), so the family's batch runs on the grid's pooled
// loop. The cell contributes nothing: its factory builds no adversary,
// its input generator no inputs, and Mutate replaces the whole
// scenario, so the family alone decides each run.
func familyGrid(mk func(seed int64) anondyn.Scenario, runs int, base int64) anondyn.Grid {
	return anondyn.Grid{
		Ns: []int{1},
		Adversaries: []anondyn.AdversaryFactory{{Name: "family",
			New: func(anondyn.Cell, int64) anondyn.Adversary { return nil }}},
		Inputs:       func(int, int64) []float64 { return nil },
		SeedsPerCell: runs,
		BaseSeed:     base,
		Mutate:       func(s *anondyn.Scenario, _ anondyn.Cell, seed int64) { *s = mk(seed) },
	}
}

// runFamily runs the family's seeds base, base+1, …, base+runs−1
// through familyGrid and hands each result to sink with its batch
// index, in seed order.
func runFamily(mk func(seed int64) anondyn.Scenario, runs int, base int64,
	sink func(i int, seed int64, res *anondyn.Result) error, opts anondyn.BatchOptions) error {
	return familyGrid(mk, runs, base).RunEach(opts,
		func(_ anondyn.Cell, _, run int, seed int64, res *anondyn.Result) error { return sink(run, seed, res) })
}

// fingerprint renders everything a batch result exposes, so equality
// of fingerprints is byte-identity of per-seed outputs.
func fingerprint(seed int64, res *anondyn.Result) string {
	return fmt.Sprintf("seed=%d decided=%v rounds=%d outputs=%v decideRounds=%v bytes=%d msgs=%d",
		seed, res.Decided, res.Rounds, res.Outputs, res.DecideRound,
		res.BytesDelivered, res.MessagesDelivered)
}

// runBatchAt runs the family batch at one worker count and returns the
// per-seed fingerprints (in delivery order) plus the streamed aggregate.
func runBatchAt(t *testing.T, workers int) ([]string, anondyn.BatchReport) {
	t.Helper()
	stats := &anondyn.BatchStats{Eps: 1e-3}
	var prints []string
	err := runFamily(batchFamily, 16, 300,
		func(i int, seed int64, res *anondyn.Result) error {
			prints = append(prints, fingerprint(seed, res))
			return stats.Consume(i, seed, res)
		},
		anondyn.BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return prints, stats.Report()
}

// TestRunManyStreamDeterministic: a batch's per-seed results and
// streamed aggregates are bit-identical at workers=1, workers=4 and
// workers=GOMAXPROCS.
func TestRunManyStreamDeterministic(t *testing.T) {
	basePrints, baseAgg := runBatchAt(t, 1)
	if len(basePrints) != 16 {
		t.Fatalf("retained %d results", len(basePrints))
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		prints, agg := runBatchAt(t, workers)
		if !reflect.DeepEqual(prints, basePrints) {
			t.Errorf("workers=%d: per-seed outputs differ from sequential run", workers)
		}
		if agg != baseAgg {
			t.Errorf("workers=%d: aggregate %+v differs from sequential %+v", workers, agg, baseAgg)
		}
	}
}

// TestRunManyMatchesStream: a batch streams exactly the direct runs of
// its seeds, in seed order.
func TestRunManyMatchesStream(t *testing.T) {
	const runs, base = 8, 70
	var gotSeeds []int64
	var results []*anondyn.Result
	err := runFamily(batchFamily, runs, base, func(_ int, seed int64, res *anondyn.Result) error {
		gotSeeds = append(gotSeeds, seed)
		results = append(results, res)
		return nil
	}, anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSeeds) != runs {
		t.Fatalf("streamed %d runs, want %d", len(gotSeeds), runs)
	}
	for i, res := range results {
		if gotSeeds[i] != base+int64(i) {
			t.Errorf("run %d: seed %d, want %d", i, gotSeeds[i], base+int64(i))
		}
		want, err := batchFamily(gotSeeds[i]).Run()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(gotSeeds[i], res) != fingerprint(gotSeeds[i], want) {
			t.Errorf("seed %d: parallel result differs from direct run", gotSeeds[i])
		}
	}
}

// TestBatchStatsMatchesRetained checks the streaming aggregates against
// the same numbers computed from the retained results.
func TestBatchStatsMatchesRetained(t *testing.T) {
	const runs = 12
	stats := &anondyn.BatchStats{Eps: 1e-3}
	var results []*anondyn.Result
	retain := func(i int, seed int64, res *anondyn.Result) error {
		results = append(results, res)
		return stats.Consume(i, seed, res)
	}
	if err := runFamily(batchFamily, runs, 900, retain, anondyn.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	decided, violations := 0, 0
	var rounds []float64
	for _, r := range results {
		if !r.Decided {
			continue
		}
		decided++
		rounds = append(rounds, float64(r.Rounds))
		if !r.Valid() || !r.EpsAgreement(1e-3) {
			violations++
		}
	}
	if stats.Runs() != runs || stats.Decided() != decided {
		t.Errorf("stats runs/decided = %d/%d, retained %d/%d", stats.Runs(), stats.Decided(), len(results), decided)
	}
	if stats.Violations() != violations {
		t.Errorf("violations = %d, want %d", stats.Violations(), violations)
	}
	if got, want := stats.Rounds(), analysis.Summarize(rounds); got != want {
		t.Errorf("rounds summary = %+v, want %+v", got, want)
	}
}

// TestRunManyStreamCollectsErrors: invalid scenarios surface as a
// joined error while valid seeds still stream through.
func TestRunManyStreamCollectsErrors(t *testing.T) {
	stats := &anondyn.BatchStats{}
	err := runFamily(func(seed int64) anondyn.Scenario {
		if seed == 2 {
			return anondyn.Scenario{} // invalid
		}
		return batchFamily(seed)
	}, 4, 0, stats.Consume, anondyn.BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if !errors.Is(err, anondyn.ErrScenario) {
		t.Errorf("err = %v, want ErrScenario in the chain", err)
	}
	if stats.Runs() != 3 {
		t.Errorf("streamed %d valid runs, want 3", stats.Runs())
	}
}
