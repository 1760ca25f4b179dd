package anondyn_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"anondyn"
)

func TestGridCellsDefaultsAndSkip(t *testing.T) {
	g := anondyn.Grid{Ns: []int{5, 7, 9}}
	cells := g.Cells()
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3 (unset axes default to one value)", len(cells))
	}
	c := cells[0]
	if c.F != 0 || c.Eps != 1e-3 || c.Algorithm != anondyn.AlgoDAC || c.Adversary.Name != "complete" {
		t.Errorf("defaults not applied: %+v", c)
	}

	g.Fs = []int{0, 2}
	g.Skip = func(c anondyn.Cell) bool { return c.N < 2*c.F+1 }
	cells = g.Cells()
	// n=5,7,9 × f=0,2; no pair is inadmissible for these sizes.
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	g.Ns = []int{3, 7}
	if got := len(g.Cells()); got != 3 {
		t.Errorf("skip kept %d cells, want 3 (n=3,f=2 dropped)", got)
	}
}

func TestGridRunAggregatesPerCell(t *testing.T) {
	g := anondyn.Grid{
		Ns:           []int{5, 7},
		Algorithms:   []anondyn.Algo{anondyn.AlgoDAC},
		SeedsPerCell: 4,
		BaseSeed:     100,
		MaxRounds:    2000,
	}
	rows, err := g.Run(anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Runs != 4 || r.Decided != 4 || r.Violations != 0 {
			t.Errorf("cell n=%d: runs/decided/violations = %d/%d/%d",
				r.N, r.Runs, r.Decided, r.Violations)
		}
		if r.Rounds.N != 4 || r.Rounds.Min < 1 {
			t.Errorf("cell n=%d rounds summary = %+v", r.N, r.Rounds)
		}
		if r.Algorithm != "DAC" || r.Adversary != "complete" {
			t.Errorf("cell labels = %q/%q", r.Algorithm, r.Adversary)
		}
	}
}

// TestGridRunDeterministic: sweep rows are bit-identical across worker
// counts.
func TestGridRunDeterministic(t *testing.T) {
	g := anondyn.Grid{
		Ns:   []int{5, 7},
		Epss: []float64{1e-2, 1e-3},
		Adversaries: []anondyn.AdversaryFactory{
			anondyn.CompleteFactory(),
			{Name: "er(0.5)", New: func(_ anondyn.Cell, seed int64) anondyn.Adversary {
				return anondyn.Probabilistic(0.5, seed)
			}},
		},
		SeedsPerCell: 3,
		MaxRounds:    5000,
	}
	base, err := g.Run(anondyn.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 8 {
		t.Fatalf("%d rows, want 8", len(base))
	}
	for _, workers := range []int{2, 8} {
		rows, err := g.Run(anondyn.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, base) {
			t.Errorf("workers=%d sweep differs from sequential", workers)
		}
	}
}

func TestGridRunEmpty(t *testing.T) {
	if _, err := (anondyn.Grid{}).Run(anondyn.BatchOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
}

// TestCellResultJSON pins the report shape the CLIs emit.
func TestCellResultJSON(t *testing.T) {
	g := anondyn.Grid{Ns: []int{5}, SeedsPerCell: 2}
	rows, err := g.Run(anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"n", "f", "eps", "algorithm", "adversary", "runs", "decided", "violations", "rounds", "output_range"} {
		if _, ok := decoded[0][key]; !ok {
			t.Errorf("report row missing %q: %s", key, data)
		}
	}
}

// TestGridVariantsAxis: the variants axis multiplies cells, labels
// rows, and applies its scenario override per run.
func TestGridVariantsAxis(t *testing.T) {
	g := anondyn.Grid{
		Ns: []int{6},
		Adversaries: func() []anondyn.AdversaryFactory {
			f, err := anondyn.ParseAdversaryFactory("halves")
			if err != nil {
				t.Fatal(err)
			}
			return []anondyn.AdversaryFactory{f}
		}(),
		Variants: []anondyn.Variant{
			{Name: "paper"},
			{Name: "eager", Apply: func(s *anondyn.Scenario) {
				s.QuorumOverride = s.N / 2
				s.Unchecked = true
			}},
		},
		Inputs:    func(n int, _ int64) []float64 { return anondyn.SplitInputs(n, n/2) },
		MaxRounds: 200,
	}
	rows, err := g.Run(anondyn.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (one per variant)", len(rows))
	}
	if rows[0].Variant != "paper" || rows[1].Variant != "eager" {
		t.Fatalf("variant labels = %q, %q", rows[0].Variant, rows[1].Variant)
	}
	// The split adversary stalls the paper quorum; the eager override
	// terminates (and disagrees) — the variant must actually apply.
	if rows[0].Decided != 0 {
		t.Errorf("paper variant decided %d runs below the threshold", rows[0].Decided)
	}
	if rows[1].Decided != 1 {
		t.Errorf("eager variant decided %d runs, want 1", rows[1].Decided)
	}
}

// TestGridRunEachOrderAndCells: per-run delivery is deterministic and
// carries the right cell coordinates.
func TestGridRunEachOrderAndCells(t *testing.T) {
	g := anondyn.Grid{
		Ns:           []int{5, 7},
		SeedsPerCell: 3,
		BaseSeed:     10,
		MaxRounds:    2000,
	}
	var gotRuns []int
	var gotSeeds []int64
	err := g.RunEach(anondyn.BatchOptions{Workers: 4},
		func(c anondyn.Cell, cell, run int, seed int64, res *anondyn.Result) error {
			if wantN := []int{5, 7}[cell]; c.N != wantN {
				t.Errorf("run %d delivered cell n=%d, want %d", run, c.N, wantN)
			}
			if cell != run/3 {
				t.Errorf("run %d mapped to cell %d", run, cell)
			}
			gotRuns = append(gotRuns, run)
			gotSeeds = append(gotSeeds, seed)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range gotRuns {
		if run != i {
			t.Fatalf("delivery %d was run %d (order not deterministic)", i, run)
		}
		if gotSeeds[i] != int64(10+i) {
			t.Fatalf("run %d used seed %d, want %d", i, gotSeeds[i], 10+i)
		}
	}
	if len(gotRuns) != 6 {
		t.Fatalf("delivered %d runs, want 6", len(gotRuns))
	}
}

// TestGridAdversaryCheck: a factory's Check rejects the sweep before
// any run starts (each of these used to panic inside a worker).
func TestGridAdversaryCheck(t *testing.T) {
	for _, c := range []struct {
		adv string
		n   int
	}{{"fig1", 7}, {"halves", 1}, {"rotating:0", 5}, {"starve:crashdeg", 1}, {"random:1,-1", 5}} {
		f, err := anondyn.ParseAdversaryFactory(c.adv)
		if err != nil {
			t.Fatal(err)
		}
		g := anondyn.Grid{Ns: []int{c.n}, Adversaries: []anondyn.AdversaryFactory{f}}
		if _, err := g.Run(anondyn.BatchOptions{}); err == nil {
			t.Errorf("%s at n=%d ran", c.adv, c.n)
		}
	}
}
