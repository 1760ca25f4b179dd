package spec

import (
	"reflect"
	"strings"
	"testing"

	"anondyn"
)

const e2ish = `
# A necessity-style sweep exercising most of the format.
name: e2-like
description: split adversary at the crash threshold
ns: [6, 7, 11]
epss: [1e-3]
algorithms: [dac]
adversaries: [halves]
variants:
  - name: paper
  - name: hypothetical
    quorum: crashdeg
seeds_per_cell: 1
max_rounds: 500
inputs: "split:(n+1)/2"
unchecked: true
`

func TestParseYAMLSweep(t *testing.T) {
	sw, err := Parse([]byte(e2ish))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "e2-like" || !sw.Unchecked || sw.MaxRounds != 500 {
		t.Errorf("decoded sweep = %+v", sw)
	}
	if len(sw.Variants) != 2 || sw.Variants[1].Quorum != "crashdeg" {
		t.Errorf("variants = %+v", sw.Variants)
	}
	if sw.Epss[0] != 1e-3 {
		t.Errorf("epss = %v", sw.Epss)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	if len(cells) != 6 { // 3 sizes × 2 variants
		t.Fatalf("%d cells, want 6", len(cells))
	}
	if cells[1].Variant.Name != "hypothetical" {
		t.Errorf("cell variant = %q", cells[1].Variant.Name)
	}
}

func TestParseJSONSweep(t *testing.T) {
	sw, err := Parse([]byte(`{
		"name": "json-sweep",
		"ns": [5, 7],
		"epss": [0.01],
		"algorithms": ["dac"],
		"adversaries": ["rotating:crashdeg"],
		"seeds_per_cell": 2,
		"base_seed": 100
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "json-sweep" || sw.BaseSeed != 100 || sw.SeedsPerCell != 2 {
		t.Errorf("decoded sweep = %+v", sw)
	}
	if _, err := sw.Grid(); err != nil {
		t.Fatal(err)
	}
}

// TestParseErrorsCiteKeys pins the error contract: malformed input
// names the offending key or line.
func TestParseErrorsCiteKeys(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"malformed yaml", "ns: [5,", "line 1"},
		{"tab indent", "ns:\n\t- 5", "line 2"},
		{"non-mapping document", "- 5\n- 7", "document"},
		{"unknown key", "ns: [5]\nwibble: 3", "wibble"},
		{"unknown nested key", "ns: [5]\ncrashes:\n  nodes: odd\n  wobble: 1", "crashes.wobble"},
		{"unknown adversary", "ns: [5]\nadversaries: [warp]", `adversaries[0]`},
		{"bad adversary arg", "ns: [5]\nadversaries: [\"rotating:x\"]", "rotating:x"},
		{"unknown algorithm", "ns: [5]\nalgorithms: [paxos]", "algorithms[0]"},
		{"empty ns", "epss: [1e-3]", "ns"},
		{"ns wrong type", "ns: [five]", "ns[0]"},
		{"bad symbolic bound", "ns: [5]\nfs: [n*2]", "fs[0]"},
		{"bad quorum", "ns: [5]\nquorum: sometimes", "quorum"},
		{"bad inputs", "ns: [5]\ninputs: zigzag", "inputs"},
		{"bad crash selector", "ns: [5]\ncrashes:\n  nodes: sideways", "crashes.nodes"},
		{"crash rounds without list", "ns: [5]\ncrashes:\n  nodes: odd\n  rounds: [1]", "crashes.rounds"},
		{"duplicate crash node", "ns: [5]\ncrashes:\n  nodes: [1, 1]\n  rounds: [2, 5]", "crashes.nodes: duplicate node 1"},
		{"duplicate node in a cast", "ns: [5]\nbyzantine:\n  - nodes: [3, 3]\n    strategy: silent", "byzantine[0].nodes: duplicate node 3"},
		{"node in two casts", "ns: [5]\nbyzantine:\n  - nodes: [1, 3]\n    strategy: silent\n  - nodes: [3]\n    strategy: noise", "byzantine[1].nodes: node 3 already cast"},
		{"bad strategy", "ns: [5]\nbyzantine:\n  - nodes: [1]\n    strategy: gossip", "byzantine[0].strategy"},
		{"strategy arg count", "ns: [5]\nbyzantine:\n  - nodes: [1]\n    strategy: extremist", "byzantine[0].args"},
		{"seed on unseeded strategy", "ns: [5]\nbyzantine:\n  - nodes: [1]\n    strategy: silent\n    seed: 3", "byzantine[0].seed"},
		{"unnamed second variant", "ns: [5]\nvariants:\n  - name: a\n  - quorum: 3", "variants[1].name"},
		{"unknown construction", "ns: [5]\nconstruction: teleport", "construction"},
		{"cells plus ns", "ns: [5]\ncells:\n  - n: 5\n    f: 1", "cells"},
		{"byzsplit infeasible", "cells:\n  - n: 5\n    f: 2\nconstruction: byzsplit", "n=5 f=2"},
		{"empty doc", "   ", "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := Parse([]byte(tc.in))
			if err == nil {
				// Some failures only surface at Grid-compile time.
				_, err = sw.Grid()
			}
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not cite %q", err, tc.want)
			}
		})
	}
}

// TestSymbolicBoundsPairCells: a symbolic fs entry pairs each n with
// its derived f instead of crossing the axes.
func TestSymbolicBoundsPairCells(t *testing.T) {
	sw, err := Parse([]byte("ns: [5, 7, 9]\nfs: [\"(n-1)/2\"]\nalgorithms: [dac]"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3 (one per n)", len(cells))
	}
	for _, c := range cells {
		if c.F != (c.N-1)/2 {
			t.Errorf("cell n=%d has f=%d, want %d", c.N, c.F, (c.N-1)/2)
		}
	}
}

// TestExplicitCells: a cells list reproduces non-cross-product
// matrices in listed order.
func TestExplicitCells(t *testing.T) {
	sw, err := Parse([]byte("cells:\n  - n: 16\n    f: 3\n  - n: 11\n    f: 2\n  - n: 15\n    f: 3\nalgorithms: [dbac]\nunchecked: true"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	for _, c := range g.Cells() {
		got = append(got, Pair{N: c.N, F: c.F})
	}
	want := []Pair{{16, 3}, {11, 2}, {15, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells = %v, want %v", got, want)
	}
}

// TestCrashCompile: the declarative schedule materializes the same map
// the hand-rolled experiments built.
func TestCrashCompile(t *testing.T) {
	sw, err := Parse([]byte(`
ns: [9]
fs: ["(n-1)/2"]
inputs: spread
crashes:
  count: "f"
  nodes: odd
  round: 3
  stagger: 2
`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	s := anondyn.Scenario{}
	g.Mutate(&s, g.Cells()[0], 0)
	got := s.Crashes
	want := map[int]anondyn.Crash{
		1: anondyn.CrashAt(3),
		3: anondyn.CrashAt(5),
		5: anondyn.CrashAt(7),
		7: anondyn.CrashAt(9),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crashes = %v, want %v", got, want)
	}
}

// TestByzantineCompile covers selector sizing and pinned noise seeds.
func TestByzantineCompile(t *testing.T) {
	sw, err := Parse([]byte(`
ns: [11]
fs: [2]
algorithms: [dbac]
byzantine:
  - count: "f"
    nodes: middle
    strategy: equivocate
  - nodes: [9]
    strategy: noise
    seed: 99
`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	s := anondyn.Scenario{}
	g.Mutate(&s, g.Cells()[0], 7)
	if len(s.Byzantine) != 3 {
		t.Fatalf("%d byzantine nodes, want 3 (middle f=2 + node 9): %v", len(s.Byzantine), s.Byzantine)
	}
	for _, node := range []int{5, 6, 9} {
		if _, ok := s.Byzantine[node]; !ok {
			t.Errorf("node %d missing from cast %v", node, s.Byzantine)
		}
	}
}

// TestGridRoundTrip is the sweep → file → Grid contract: a sweep
// survives encode/parse unchanged, and its compiled grid runs the rows
// of the same matrix built by hand as a Grid.
func TestGridRoundTrip(t *testing.T) {
	sw := &Sweep{
		Ns:           []int{5, 7},
		Fs:           []Bound{{Lit: 0}},
		Epss:         []float64{1e-3, 1e-2},
		Algorithms:   []string{"dac"},
		Adversaries:  []string{"complete", "er:0.6", "random:2,3"},
		SeedsPerCell: 3,
		BaseSeed:     42,
		MaxRounds:    3000,
	}
	encoded := sw.Encode()
	sw2, err := Parse(encoded)
	if err != nil {
		t.Fatalf("re-parse of emitted spec failed: %v\n%s", err, encoded)
	}
	if !reflect.DeepEqual(sw, sw2) {
		t.Fatalf("sweep changed across encode/parse:\n%+v\n%+v\n%s", sw, sw2, encoded)
	}
	g, err := sw2.Grid()
	if err != nil {
		t.Fatal(err)
	}

	byHand := anondyn.Grid{
		Ns:           []int{5, 7},
		Fs:           []int{0},
		Epss:         []float64{1e-3, 1e-2},
		Algorithms:   []anondyn.Algo{anondyn.AlgoDAC},
		SeedsPerCell: 3,
		BaseSeed:     42,
		MaxRounds:    3000,
	}
	for _, name := range sw.Adversaries {
		f, err := anondyn.ParseAdversaryFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		byHand.Adversaries = append(byHand.Adversaries, f)
	}

	rows, err := g.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := byHand.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 || !reflect.DeepEqual(rows, want) {
		t.Errorf("compiled grid rows differ from the hand-built grid's:\n%+v\n%+v", rows, want)
	}
}

// TestEncodeParsesBackWithFaults: the writer's block forms (crashes,
// byzantine, variants, cells) re-parse to the same sweep.
func TestEncodeParsesBackWithFaults(t *testing.T) {
	seed := int64(99)
	sw := &Sweep{
		Name:         "full",
		Description:  "writer coverage",
		Pairs:        []Pair{{11, 2}, {16, 3}},
		Epss:         []float64{1e-3},
		Algorithms:   []string{"dbac"},
		Adversaries:  []string{"rotating:byzdeg"},
		Variants:     []Variant{{Name: "K=0"}, {Name: "K=2", Overrides: Overrides{PiggybackWindow: 2}}},
		SeedsPerCell: 1,
		MaxRounds:    500,
		Inputs:       "spread",
		Overrides:    Overrides{PEnd: 14, Unchecked: true, hasUnchecked: true},
		Crashes:      &Crashes{NodeList: []int{1, 4}, Rounds: []int{3, 9}},
		Byzantine: []Cast{
			{Count: "f", Nodes: "middle", Strategy: "equivocate", Args: []float64{0, 1}},
			{NodeList: []int{9}, Strategy: "noise", Seed: &seed},
		},
	}
	if err := sw.validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	encoded := sw.Encode()
	got, err := Parse(encoded)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, encoded)
	}
	if !reflect.DeepEqual(sw, got) {
		t.Errorf("sweep changed across encode/parse:\nwant %+v\ngot  %+v\n%s", sw, got, encoded)
	}
}

// TestCellsOrderContract: explicit cells lists that the n-major sweep
// enumeration would reorder (or that repeat a cell) are rejected
// instead of silently rearranged.
func TestCellsOrderContract(t *testing.T) {
	parse := func(body string) error {
		sw, err := Parse([]byte("algorithms: [dac]\nunchecked: true\n" + body))
		if err != nil {
			return err
		}
		_, err = sw.Grid()
		return err
	}
	if err := parse("cells:\n  - n: 10\n    f: 1\n  - n: 8\n    f: 2\n  - n: 10\n    f: 3"); err == nil {
		t.Error("non-contiguous repeated n accepted")
	} else if !strings.Contains(err.Error(), "cells") {
		t.Errorf("error %q does not cite cells", err)
	}
	if err := parse("cells:\n  - n: 10\n    f: 1\n  - n: 10\n    f: 1"); err == nil {
		t.Error("duplicate cell accepted")
	}
	// Contiguous repeats of an n are fine.
	if err := parse("cells:\n  - n: 10\n    f: 1\n  - n: 10\n    f: 3\n  - n: 8\n    f: 2"); err != nil {
		t.Errorf("contiguous cells rejected: %v", err)
	}
}

// TestEncodeEscapedStrings: names needing quoting survive the
// encode/parse round trip byte-for-byte.
func TestEncodeEscapedStrings(t *testing.T) {
	sw := &Sweep{
		Name:        `quote "me", please`,
		Description: "colon: and # hash",
		Ns:          []int{5},
	}
	if err := sw.validate(); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(sw.Encode())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sw.Encode())
	}
	if got.Name != sw.Name || got.Description != sw.Description {
		t.Errorf("round trip changed strings: %+v", got)
	}
}
