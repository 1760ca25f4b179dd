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
	err := anondyn.RunManyStream(anondyn.Seeds(16, 300), batchFamily,
		anondyn.Sinks(stats, anondyn.SinkFunc(func(_ int, seed int64, res *anondyn.Result) error {
			prints = append(prints, fingerprint(seed, res))
			return nil
		})),
		anondyn.BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return prints, stats.Report()
}

// TestRunManyStreamDeterministic is the tentpole contract: per-seed
// results and streamed aggregates are bit-identical at workers=1,
// workers=4 and workers=GOMAXPROCS.
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
	seeds := anondyn.Seeds(8, 70)
	var gotSeeds []int64
	var results []*anondyn.Result
	err := anondyn.RunManyStream(seeds, batchFamily, anondyn.SinkFunc(func(_ int, seed int64, res *anondyn.Result) error {
		gotSeeds = append(gotSeeds, seed)
		results = append(results, res)
		return nil
	}), anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSeeds, seeds) {
		t.Errorf("seeds = %v, want %v", gotSeeds, seeds)
	}
	for i, res := range results {
		want, err := batchFamily(seeds[i]).Run()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(seeds[i], res) != fingerprint(seeds[i], want) {
			t.Errorf("seed %d: parallel result differs from direct run", seeds[i])
		}
	}
}

// TestBatchStatsMatchesRetained checks the streaming aggregates against
// the same numbers computed from the retained results.
func TestBatchStatsMatchesRetained(t *testing.T) {
	seeds := anondyn.Seeds(12, 900)
	stats := &anondyn.BatchStats{Eps: 1e-3}
	var results []*anondyn.Result
	retain := anondyn.SinkFunc(func(_ int, _ int64, res *anondyn.Result) error {
		results = append(results, res)
		return nil
	})
	if err := anondyn.RunManyStream(seeds, batchFamily, anondyn.Sinks(stats, retain), anondyn.BatchOptions{}); err != nil {
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
	if stats.Runs() != len(seeds) || stats.Decided() != decided {
		t.Errorf("stats runs/decided = %d/%d, retained %d/%d", stats.Runs(), stats.Decided(), len(results), decided)
	}
	if stats.DecidedAll() != (decided == len(results)) {
		t.Error("DecidedAll mismatch")
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
	err := anondyn.RunManyStream(anondyn.Seeds(4, 0), func(seed int64) anondyn.Scenario {
		if seed == 2 {
			return anondyn.Scenario{} // invalid
		}
		return batchFamily(seed)
	}, stats, anondyn.BatchOptions{Workers: 2})
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

// TestRunManyStreamProgress checks the ordered progress callback.
func TestRunManyStreamProgress(t *testing.T) {
	var last, calls int
	err := anondyn.RunManyStream(anondyn.Seeds(6, 0), batchFamily, &anondyn.BatchStats{},
		anondyn.BatchOptions{Workers: 3, OnProgress: func(done, total int) {
			if total != 6 || done != last+1 {
				t.Errorf("progress (%d, %d) after %d", done, total, last)
			}
			last = done
			calls++
		}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("progress called %d times", calls)
	}
}
