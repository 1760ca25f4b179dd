package anondyn_test

// The two contracts of the metrics tap, pinned as properties:
//
//   - Parity: attaching a metrics sink NEVER perturbs results. The
//     engine keeps Metrics out of its code-path gates, so a
//     metrics-enabled batch must reproduce the metrics-disabled batch
//     byte-for-byte, on either edge-set representation (ForceCSR).
//
//   - Determinism: the samples themselves carry no wall-clock-derived
//     values — two runs of the same seed emit identical series, and two
//     collectors fed those runs agree on every Snapshot field outside
//     the Timing sub-struct.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"anondyn"
	"anondyn/internal/metrics"
)

// parityFamily is the fixture scenario family: n=9 DAC under the
// seeded ER adversary with random inputs, on the representation the
// sub-test selects.
func parityFamily(forceCSR bool) func(int64) anondyn.Scenario {
	return func(seed int64) anondyn.Scenario {
		return anondyn.Scenario{
			N: 9, Eps: 1e-3,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.RandomInputs(9, seed),
			Adversary: anondyn.Probabilistic(0.5, seed),
			Seed:      seed,
			ForceCSR:  forceCSR,
		}
	}
}

// parityRow is the serialized view of one run — every result field a
// metrics bug could plausibly perturb.
type parityRow struct {
	Seed      int64           `json:"seed"`
	Decided   bool            `json:"decided"`
	Rounds    int             `json:"rounds"`
	Outputs   map[int]float64 `json:"outputs"`
	Delivered int             `json:"delivered"`
	Lost      int             `json:"lost"`
}

// runParityBatch runs the family over the seeds and serializes the
// result stream. JSON map keys are emitted in sorted order, so equal
// results mean equal bytes.
func runParityBatch(t *testing.T, mk func(int64) anondyn.Scenario, sink anondyn.MetricsSink) []byte {
	t.Helper()
	var rows []parityRow
	collect := func(_ int, seed int64, res *anondyn.Result) error {
		rows = append(rows, parityRow{
			Seed: seed, Decided: res.Decided, Rounds: res.Rounds,
			Outputs:   res.Outputs,
			Delivered: res.MessagesDelivered, Lost: res.MessagesLost,
		})
		return nil
	}
	opts := anondyn.BatchOptions{Workers: 2, Metrics: sink}
	if err := runFamily(mk, 8, 100, collect, opts); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMetricsParityProperty: metrics-on and metrics-off batches are
// byte-identical on either representation.
func TestMetricsParityProperty(t *testing.T) {
	for _, forceCSR := range []bool{false, true} {
		t.Run(fmt.Sprintf("csr=%v", forceCSR), func(t *testing.T) {
			mk := parityFamily(forceCSR)
			off := runParityBatch(t, mk, nil)
			on := runParityBatch(t, mk, metrics.NewCollector())
			if !bytes.Equal(off, on) {
				t.Errorf("metrics-enabled rows differ from disabled rows:\noff %s\non  %s", off, on)
			}
		})
	}
}

// seriesRun executes one sequential seeded run with a SeriesSink and a
// Collector teed together, returning the recorded series and the
// collector's snapshot.
func seriesRun(t *testing.T, seed int64) (*metrics.SeriesSink, metrics.Snapshot) {
	t.Helper()
	ss := &metrics.SeriesSink{}
	coll := metrics.NewCollector()
	mk := parityFamily(false)
	opts := anondyn.BatchOptions{Workers: 1, Metrics: metrics.Tee(ss, coll)}
	err := runFamily(mk, 2, seed, func(int, int64, *anondyn.Result) error { return nil }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ss, coll.Snapshot()
}

// TestMetricsSeriesDeterminism: two runs of the same seeds emit
// identical RoundSample and RunSample series, and their snapshots agree
// on everything outside the wall-clock Timing sub-struct.
func TestMetricsSeriesDeterminism(t *testing.T) {
	ss1, snap1 := seriesRun(t, 7)
	ss2, snap2 := seriesRun(t, 7)
	if len(ss1.RoundSamples) == 0 || len(ss1.RunSamples) != 2 {
		t.Fatalf("series empty: %d round samples, %d run samples",
			len(ss1.RoundSamples), len(ss1.RunSamples))
	}
	if !reflect.DeepEqual(ss1.RoundSamples, ss2.RoundSamples) {
		t.Error("round series differ across identical runs")
	}
	if !reflect.DeepEqual(ss1.RunSamples, ss2.RunSamples) {
		t.Error("run series differ across identical runs")
	}
	// Everything outside Timing is a deterministic function of the
	// execution; Timing is where wall clock is allowed to live.
	snap1.Timing, snap2.Timing = metrics.Timing{}, metrics.Timing{}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("snapshots differ beyond Timing:\n%+v\n%+v", snap1, snap2)
	}
}
