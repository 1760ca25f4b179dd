package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn"
	"anondyn/internal/spec"
)

// testSizes shrinks every workload so the whole suite runs in seconds.
var testSizes = sizes{
	smallSeeds: 50,
	byzSeeds:   5,
	stormSeeds: 2,
	stormNodes: 400,
	sparseN:    257,
	er2Rounds:  32,
	regRounds:  64,
}

// TestSpecs pins the frozen specs: each renders with the workload seed,
// compiles, and yields the cell and run counts the workloads state.
func TestSpecs(t *testing.T) {
	for _, tc := range []struct {
		file         string
		seeds, cells int
		stress       bool
	}{
		{"er-crash-sweep.yaml", fullSizes.smallSeeds, 4, false},
		{"dbac-byz-dense.yaml", fullSizes.byzSeeds, 6, false},
		{"cascading-failure.yaml", fullSizes.stormSeeds, 1, true},
	} {
		data, err := renderSpec(tc.file, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		sw, grid, err := spec.Compile(data, tc.seeds)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := len(grid.Cells()); got != tc.cells {
			t.Errorf("%s: %d cells, want %d", tc.file, got, tc.cells)
		}
		if got, want := grid.Runs(), tc.cells*tc.seeds; got != want {
			t.Errorf("%s: %d runs per rep, want %d", tc.file, got, want)
		}
		if sw.BaseSeed != 7*seedStride {
			t.Errorf("%s: base_seed %d, want %d", tc.file, sw.BaseSeed, 7*seedStride)
		}
		if tc.stress && (sw.Stress == nil || sw.Stress.Seed != 7 || sw.Stress.Fleet.TotalNodes != 10000) {
			t.Errorf("%s: stress section not rendered from the seed: %+v", tc.file, sw.Stress)
		}
	}
}

// TestContractMatchesCode holds BENCHMARK.json and the tables in the
// code in step: same workloads and reasons, same metrics and units.
func TestContractMatchesCode(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, declared []contractMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
			if b := declared[i].Better; b != "lower" && b != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.name, b)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs the whole benchmark at test
// sizes: every workload emits every declared metric exactly once, with
// its unit and a finite value, nothing fails, traced and untraced runs
// agree on the digest, and the spans nest.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	var stdout bytes.Buffer
	if err := run([]string{"-reps", "2", "-json", path, "-out", dir}, testSizes, &stdout, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	file, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if file.Host.Cores < 1 || file.Host.GOMAXPROCS < 1 || file.Host.Go == "" || file.Host.CPU == "" {
		t.Errorf("host not recorded: %+v", file.Host)
	}
	if want := 2 * len(workloads); len(file.Results) != want {
		t.Fatalf("%d results, want %d", len(file.Results), want)
	}
	digests := map[string]string{}
	for _, res := range file.Results {
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%t: %d metrics, want %d", res.Workload, res.Traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s traced=%t: %s not emitted", res.Workload, res.Traced, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
				t.Errorf("%s: %s = %v", res.Workload, d.name, m.Value)
			case !res.Traced && m.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", res.Workload, d.name)
			}
			if n := strings.Count(stdout.String(), "\n  "+d.name+" "); n != len(workloads) {
				t.Errorf("%s printed %d times, want once per workload", d.name, n)
			}
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%t: %d of %d runs failed: %v", res.Workload, res.Traced, res.Failed, res.Attempted, res.Notes)
		}
		if prev, ok := digests[res.Workload]; ok && prev != res.SimDigest {
			t.Errorf("%s: traced sim_digest %s != untraced %s", res.Workload, res.SimDigest, prev)
		}
		digests[res.Workload] = res.SimDigest
	}
	if digests["sweep-small-local"] != digests["sweep-small-sharded"] {
		t.Errorf("sharded report differs from local: %s vs %s", digests["sweep-small-sharded"], digests["sweep-small-local"])
	}

	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) == 0 || tf.Workload != w.name {
			t.Fatalf("%s: trace file holds %d spans for %q", w.name, len(tf.Spans), tf.Workload)
		}
		children := make([]int64, len(tf.Spans))
		for i, s := range tf.Spans {
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d (%s) ends before it starts", w.name, i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			p := tf.Spans[s.Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Rep != p.Rep {
				t.Errorf("%s: span %d (%s) escapes its parent %s", w.name, i, s.Name, p.Name)
			}
			children[s.Parent] += s.EndNs - s.StartNs
		}
		for i, s := range tf.Spans {
			if children[i] > s.EndNs-s.StartNs {
				t.Errorf("%s: children of span %d (%s) take %d ns, the span %d ns", w.name, i, s.Name, children[i], s.EndNs-s.StartNs)
			}
		}
	}

	// A result file compared with itself changes nothing.
	var out bytes.Buffer
	if err := run([]string{"-compare", path, path}, testSizes, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(out.String(), "\n") - 3; rows != len(workloads)*len(endToEnd) {
		t.Errorf("compare printed %d rows, want %d:\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "better") || strings.Contains(out.String(), "WARNING") {
		t.Errorf("a file compared with itself:\n%s", out.String())
	}
}

// TestContractLine checks the single-run form a driver parses.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout bytes.Buffer
		args := []string{"--workload", "round-sparse-regular", "--seed", "3", "--seconds", "0.05", "--trace", trace, "-out", t.TempDir()}
		if err := run(args, testSizes, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    int   `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or malformed", trace, d.name)
			}
		}
	}
}

// TestDecoratorParity runs the same scenario bare and decorated: the
// wrappers must forward every seam the engine probes for, so rounds,
// delivered and lost messages, outputs and decision rounds agree — on
// both sparse graph families, in both edge-set representations, and on
// a dense DBAC run with Byzantine senders and a crash.
func TestDecoratorParity(t *testing.T) {
	const n = 257
	sparse := func(adv func() anondyn.Adversary, csr bool) func() anondyn.Scenario {
		return func() anondyn.Scenario {
			return anondyn.Scenario{
				N: n, Eps: 1e-3, Algorithm: anondyn.AlgoDAC, PEndOverride: 3,
				Inputs: anondyn.SpreadInputs(n), Adversary: adv(), MaxRounds: 400, Seed: 5, ForceCSR: csr,
			}
		}
	}
	er2 := func() anondyn.Adversary { return anondyn.SparseProbabilistic(8.0/n, 5) }
	regular := func() anondyn.Adversary { return anondyn.Rotating(4) }
	faulted := func() anondyn.Scenario {
		s := byzCell(11)
		s.F = 10
		delete(s.Byzantine, 25)
		s.Crashes = map[int]anondyn.Crash{3: anondyn.CrashAt(6)}
		return s
	}
	for name, mk := range map[string]func() anondyn.Scenario{
		"er2/dense": sparse(er2, false), "er2/csr": sparse(er2, true),
		"regular/dense": sparse(regular, false), "regular/csr": sparse(regular, true),
		"dbac/faulted": faulted,
	} {
		want, err := mk().Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, every := range []int{1, sampleEvery} {
			tr := newTracer()
			got, err := runDecoratedEvery(mk(), tr, every)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(canonicalResult(got), canonicalResult(want)) {
				t.Errorf("%s (every %d): decorated run differs:\n%s\nvs bare:\n%s", name, every,
					firstLine(canonicalResult(got)), firstLine(canonicalResult(want)))
			}
			if _, delivered := tr.total("core.deliver"); every == 1 && delivered != want.MessagesDelivered {
				t.Errorf("%s: decorators saw %d deliveries, the engine counted %d", name, delivered, want.MessagesDelivered)
			}
		}
		if !want.Decided {
			t.Errorf("%s: the parity case never decides, so it compares no outputs", name)
		}
	}
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}

// TestVerdict pins how -compare applies a bound.
func TestVerdict(t *testing.T) {
	lower := contractMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := contractMetric{Name: "runs_per_s", Better: "higher", Bound: 0.1}
	steady := func(v float64) metric { return metric{Value: v, Samples: []float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) metric { return metric{Value: v, Samples: []float64{v * 0.8, v, v * 1.3}} }
	for _, tc := range []struct {
		m        contractMetric
		old, new metric
		want     string
	}{
		{lower, steady(1), steady(1.05), "same"},
		{lower, steady(1), steady(1.2), "worse"},
		{lower, steady(1), steady(0.8), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(1), noisy(1.2), "unresolved"},
		{lower, noisy(1), steady(1), "unresolved"},
	} {
		if got, _ := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %g -> %g: %s, want %s", tc.m.Name, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}
}
