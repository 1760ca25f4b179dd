package spec

import (
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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
	if sw.Name != "e2-like" || sw.Unchecked == nil || !*sw.Unchecked || sw.MaxRounds != 500 {
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
		{"selector casts overlap", "ns: [11]\nfs: [2]\nbyzantine:\n  - nodes: first\n    strategy: silent\n  - nodes: first\n    strategy: noise", "byzantine[1].nodes: cell n=11 f=2: node 0 already cast by byzantine[0]"},
		{"list and selector casts overlap", "ns: [11]\nfs: [2]\nbyzantine:\n  - nodes: [0]\n    strategy: silent\n  - nodes: first\n    strategy: noise", "byzantine[1].nodes: cell n=11 f=2: node 0 already cast by byzantine[0]"},
		{"cast node outside the cell", "ns: [5, 9]\nfs: [1]\nbyzantine:\n  - nodes: [7]\n    strategy: silent", "byzantine[0].nodes: cell n=5 f=1: node 7 outside [0, 5)"},
		{"crash victim outside the cell", "ns: [5]\nfs: [1]\ncrashes:\n  nodes: [9]\n  round: 2", "crashes.nodes: cell n=5 f=1: node 9 outside [0, 5)"},
		{"cast node crash-scheduled", "ns: [11]\nfs: [2]\ncrashes:\n  nodes: odd\n  count: 1\nbyzantine:\n  - nodes: [1]\n    strategy: silent", "byzantine[0].nodes: cell n=11 f=2: node 1 is also crash-scheduled"},
		{"crash nodes scalar", "ns: [5]\ncrashes:\n  nodes: 3", "crashes.nodes: expected a selector name or a node list, got an integer"},
		{"crashes not a mapping", "ns: [5]\ncrashes: 3", "crashes: expected a mapping, got an integer"},
		{"stress without fleet", "name: x\nstress:\n  rounds: 5", "stress.fleet: required"},
		{"assertion not a name", "name: x\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n  assertions: [3]", "stress.assertions[0]: expected an assertion name or a bound mapping, got an integer"},
		{"unknown assertion bound", "name: x\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n  assertions:\n    - wibble: 3", "stress.assertions[0]: expected max_rounds or survivors"},
		{"float cast seed", "ns: [5]\nbyzantine:\n  - nodes: [1]\n    strategy: noise\n    seed: 1.5", "byzantine[0].seed: expected an integer, got a float"},
		{"variant not a mapping", "ns: [5]\nvariants: [3]", "variants[0]: expected a mapping, got an integer"},
		{"cell without n", "cells:\n  - f: 1", "cells[0].n: required"},
		{"quorum sequence", "ns: [5]\nquorum: [1]", "quorum: expected an integer or a string, got a sequence"},
		{"unchecked integer", "ns: [5]\nunchecked: 1", "unchecked: expected true/false, got an integer"},
		{"fractional seeds", "ns: [5]\nseeds_per_cell: 1.5", "seeds_per_cell: expected an integer, got a float"},
		{"template weight string", "name: x\nstress:\n  fleet:\n    total_nodes: 10\n    templates:\n      - name: a\n        weight: heavy\n  rounds: 5", "stress.fleet.templates[0].weight: expected an integer, got a string"},
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

// TestCrashPlanSharedPerCell: each cell's crash plan is compiled once
// by Grid and handed to every run of the cell, and a 2-worker sweep
// leaves every plan as it was compiled (under -race, a run that wrote
// the shared map would also race the other worker's reads).
func TestCrashPlanSharedPerCell(t *testing.T) {
	sw, err := Parse([]byte(`
ns: [9, 11]
fs: [2]
adversaries: ["er:0.3", complete]
seeds_per_cell: 6
crashes:
  nodes: [2, 5]
  rounds: [4, 9]
`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	plans := map[int]map[int]anondyn.Crash{} // by n: the f axis is one value
	want := map[int]map[int]anondyn.Crash{}
	for _, c := range g.Cells() {
		s := anondyn.Scenario{}
		g.Mutate(&s, c, 0)
		if p, ok := plans[c.N]; ok && reflect.ValueOf(p).Pointer() != reflect.ValueOf(s.Crashes).Pointer() {
			t.Fatalf("cell n=%d %s: a second crash map for the cell", c.N, c.Adversary.Name)
		}
		plans[c.N] = s.Crashes
		want[c.N] = maps.Clone(s.Crashes)
	}
	mutate := g.Mutate
	var runs atomic.Int64
	g.Mutate = func(s *anondyn.Scenario, c anondyn.Cell, seed int64) {
		mutate(s, c, seed)
		if reflect.ValueOf(s.Crashes).Pointer() != reflect.ValueOf(plans[c.N]).Pointer() {
			panic("a run got its own crash map")
		}
		runs.Add(1)
	}
	if _, err := g.Run(anondyn.BatchOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != int64(len(g.Cells())*6) {
		t.Fatalf("%d runs, want %d", got, len(g.Cells())*6)
	}
	for n, plan := range plans {
		if !reflect.DeepEqual(plan, want[n]) {
			t.Errorf("n=%d: the sweep left plan %v, compiled %v", n, plan, want[n])
		}
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
	seed, unchecked := int64(99), true
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
		Overrides:    Overrides{PEnd: 14, Unchecked: &unchecked},
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

// TestSelectorSpansMeet: the placement check's closed-form overlap of
// two selectors finds the smallest node the materialized sets share.
func TestSelectorSpansMeet(t *testing.T) {
	sels := []string{"first", "top", "middle", "odd", "even"}
	for n := 1; n <= 9; n++ {
		cell := anondyn.Cell{N: n}
		for _, a := range sels {
			for _, b := range sels {
				for ca := 0; ca <= n+1; ca++ {
					for cb := 0; cb <= n+1; cb++ {
						pa := resolveNodes(a, nil, strconv.Itoa(ca), cell)
						pb := resolveNodes(b, nil, strconv.Itoa(cb), cell)
						want, found := -1, false
						for _, x := range pa.nodes() {
							if slices.Contains(pb.nodes(), x) && (!found || x < want) {
								want, found = x, true
							}
						}
						got, ok := pa.sel.meet(pb.sel)
						if ok != found || ok && got != want {
							t.Fatalf("n=%d %s:%d meets %s:%d at (%d, %v), want (%d, %v)", n, a, ca, b, cb, got, ok, want, found)
						}
					}
				}
			}
		}
	}
}

// TestVariantOverridesMerge: a variant's set fields win over the
// sweep-wide overrides, an explicit false included, and unset fields
// inherit.
func TestVariantOverridesMerge(t *testing.T) {
	sw, err := Parse([]byte("ns: [5]\nunchecked: true\np_end: 9\nvariants:\n  - name: checked\n    unchecked: false\n  - name: inherits\n    quorum: 2"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sw.Grid()
	if err != nil {
		t.Fatal(err)
	}
	var got []anondyn.Scenario
	for _, v := range g.Variants {
		var s anondyn.Scenario
		v.Apply(&s)
		got = append(got, s)
	}
	if got[0].Unchecked || got[0].PEndOverride != 9 || got[0].QuorumOverride != 0 {
		t.Errorf("variant checked = %+v, want checked, p_end 9, paper quorum", got[0])
	}
	if !got[1].Unchecked || got[1].PEndOverride != 9 || got[1].QuorumOverride != 2 {
		t.Errorf("variant inherits = %+v, want unchecked, p_end 9, quorum 2", got[1])
	}
}
