package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const baselineText = `
goos: linux
BenchmarkEngineRound/n=25-4   	   50000	     25880 ns/op	     512 B/op	      98 allocs/op
BenchmarkEngineRound/n=25-4   	   50000	     26011 ns/op	     512 B/op	      98 allocs/op
BenchmarkEngineRound/n=25-4   	   50000	     25790 ns/op	     512 B/op	      98 allocs/op
BenchmarkEngineRoundCompiled-4	  100000	     20110 ns/op	     128 B/op	      20 allocs/op
BenchmarkEngineRoundCompiled-4	  100000	     20350 ns/op	     128 B/op	      20 allocs/op
PASS
`

func write(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesOnEqualRuns(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	// Same numbers, different GOMAXPROCS suffix: must still line up.
	fresh := write(t, dir, "new.txt", strings.ReplaceAll(baselineText, "-4", "-16"))
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err != nil {
		t.Fatalf("identical runs gated: %v", err)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", strings.ReplaceAll(baselineText, "98 allocs/op", "140 allocs/op"))
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err == nil {
		t.Fatal("alloc regression passed the gate")
	}
}

func TestGateFailsOnSeparatedNsRegression(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", strings.NewReplacer(
		"25880 ns/op", "298880 ns/op",
		"26011 ns/op", "299011 ns/op",
		"25790 ns/op", "297790 ns/op",
	).Replace(baselineText))
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err == nil {
		t.Fatal("11x ns/op regression passed the gate")
	}
}

// TestGateToleratesMachineDelta: a uniformly 3x-slower machine must
// not trip the default cross-machine ns/op threshold.
func TestGateToleratesMachineDelta(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", strings.NewReplacer(
		"25880 ns/op", "77640 ns/op",
		"26011 ns/op", "78033 ns/op",
		"25790 ns/op", "77370 ns/op",
		"20110 ns/op", "60330 ns/op",
		"20350 ns/op", "61050 ns/op",
	).Replace(baselineText))
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err != nil {
		t.Fatalf("3x machine delta gated: %v", err)
	}
}

func TestGateToleratesOverlappingNoise(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	// Median nominally over threshold but one new sample dips into the
	// baseline range: treated as noise, not regression.
	fresh := write(t, dir, "new.txt", strings.NewReplacer(
		"25880 ns/op", "955880 ns/op",
		"26011 ns/op", "956011 ns/op",
		"25790 ns/op", "25800 ns/op",
	).Replace(baselineText))
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err != nil {
		t.Fatalf("overlapping samples gated: %v", err)
	}
}

func TestGateRejectsVacuousComparison(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", "BenchmarkSomethingElse-4 10 5 ns/op 0 allocs/op\n")
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err == nil {
		t.Fatal("gate with no common benchmarks passed")
	}
}

// TestGateBenchFilter: the input files select what is gated — only
// benchmarks present in both — and -require pins the ones that must be.
func TestGateBenchFilter(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	// Regress only the compiled benchmark, then leave it out of the new
	// run (go test -bench 'EngineRound/'): the job must stay green.
	regressed := strings.ReplaceAll(baselineText, "20 allocs/op", "80 allocs/op")
	var roundOnly []string
	for _, line := range strings.Split(regressed, "\n") {
		if !strings.HasPrefix(line, "BenchmarkEngineRoundCompiled") {
			roundOnly = append(roundOnly, line)
		}
	}
	filtered := write(t, dir, "filtered.txt", strings.Join(roundOnly, "\n"))
	if err := runGate([]string{"-baseline", base, "-new", filtered, "-require", "EngineRound/"}); err != nil {
		t.Fatalf("filtered gate failed: %v", err)
	}
	if err := runGate([]string{"-baseline", base, "-new", filtered, "-require", "EngineRoundCompiled"}); err == nil {
		t.Fatal("-require missed the benchmark left out of the new run")
	}
	fresh := write(t, dir, "new.txt", regressed)
	if err := runGate([]string{"-baseline", base, "-new", fresh}); err == nil {
		t.Fatal("unfiltered gate missed the compiled regression")
	}
}

// densityText carries the graph-density benchmark axis names (slashes,
// dots, equals signs) the gate must both parse and enforce coverage of.
const densityText = `
BenchmarkEngineRound/n=51-4          	    1000	     98372 ns/op	     36672 B/op	     152 allocs/op
BenchmarkEngineRound/n=51/p=0.1-4    	    1000	     29042 ns/op	     40176 B/op	     164 allocs/op
BenchmarkEngineRound/n=51/d=4-4      	    1000	      9417 ns/op	     33272 B/op	     158 allocs/op
PASS
`

func TestGateRequireSatisfied(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", densityText)
	fresh := write(t, dir, "new.txt", densityText)
	err := runGate([]string{"-baseline", base, "-new", fresh,
		"-require", `EngineRound/n=51/p=0\.1, EngineRound/n=51/d=4`})
	if err != nil {
		t.Fatalf("satisfied -require rejected: %v", err)
	}
}

func TestGateRequireMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", densityText)
	// The density axis vanished from the fresh run: coverage error.
	fresh := write(t, dir, "new.txt", strings.ReplaceAll(densityText, "/p=0.1", ""))
	err := runGate([]string{"-baseline", base, "-new", fresh,
		"-require", `EngineRound/n=51/p=0\.1`})
	if err == nil || !strings.Contains(err.Error(), "-require") {
		t.Fatalf("missing required benchmark not surfaced: %v", err)
	}
}

func TestGateRequireBadPattern(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", densityText)
	fresh := write(t, dir, "new.txt", densityText)
	err := runGate([]string{"-baseline", base, "-new", fresh, "-require", "("})
	if err == nil || !strings.Contains(err.Error(), "-require") {
		t.Fatalf("invalid -require pattern not surfaced: %v", err)
	}
}

// TestAppendHistoryRoundTrip: two passing runs with distinct labels
// must accumulate into one ordered JSON history; the recorded values
// are the per-benchmark medians of the fresh run.
func TestAppendHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", baselineText)
	hist := filepath.Join(dir, "BENCH_engine.json")

	if err := runGate([]string{"-baseline", base, "-new", fresh,
		"-append", hist, "-label", "pr6"}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := runGate([]string{"-baseline", base, "-new", fresh,
		"-append", hist, "-label", "pr7"}); err != nil {
		t.Fatalf("second append: %v", err)
	}

	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var history []historyEntry
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatalf("history not valid JSON: %v\n%s", err, data)
	}
	if len(history) != 2 || history[0].Label != "pr6" || history[1].Label != "pr7" {
		t.Fatalf("history = %+v", history)
	}
	m, ok := history[0].Benchmarks["BenchmarkEngineRound/n=25"]
	if !ok {
		t.Fatalf("entry lacks the gated benchmark: %+v", history[0].Benchmarks)
	}
	if m.NsOp != 25880 || m.AllocsOp != 98 {
		t.Errorf("recorded medians = %+v, want ns_op 25880 allocs_op 98", m)
	}
}

// TestAppendHistoryRecordsHost: an entry carries the host of the run it
// records — the output's cpu line, the GOMAXPROCS suffix of its
// benchmark names, and this machine's cores.
func TestAppendHistoryRecordsHost(t *testing.T) {
	dir := t.TempDir()
	text := "goos: linux\ngoarch: amd64\ncpu: Test CPU @ 1.00GHz\n" + edgeText
	base := write(t, dir, "base.txt", text)
	hist := filepath.Join(dir, "BENCH_engine.json")
	if err := runGate([]string{"-baseline", base, "-new", base, "-append", hist, "-label", "host"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var history []historyEntry
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatal(err)
	}
	got := history[0]
	if got.CPU != "Test CPU @ 1.00GHz" || got.GOMAXPROCS != 4 || got.Cores != runtime.NumCPU() {
		t.Errorf("host = %q, GOMAXPROCS %d, %d cores; want %q, 4, %d", got.CPU, got.GOMAXPROCS, got.Cores, "Test CPU @ 1.00GHz", runtime.NumCPU())
	}
}

// edgeText reports the custom ns/edge metric alongside the standard
// units, as BenchmarkEngineRound does via b.ReportMetric.
const edgeText = `
BenchmarkEngineRound/n=1025/p=8n-4   	     100	    368000 ns/op	        50.50 ns/edge	       0 B/op	       0 allocs/op
BenchmarkEngineRound/n=1025/p=8n-4   	     100	    369000 ns/op	        50.70 ns/edge	       0 B/op	       0 allocs/op
PASS
`

// TestAppendRecordsNsEdge: the ns/edge metric must land in the ledger,
// and a second append must print a delta line against the previous
// entry covering all three tracked units.
func TestAppendRecordsNsEdge(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", edgeText)
	fresh := write(t, dir, "new.txt", edgeText)
	faster := write(t, dir, "faster.txt", strings.NewReplacer(
		"368000 ns/op", "340000 ns/op",
		"369000 ns/op", "341000 ns/op",
		"50.50 ns/edge", "46.60 ns/edge",
		"50.70 ns/edge", "46.80 ns/edge",
	).Replace(edgeText))
	hist := filepath.Join(dir, "hist.json")
	stdoutOf(t, "gate", "-baseline", base, "-new", fresh, "-append", hist, "-label", "pr6")
	log := stdoutOf(t, "gate", "-baseline", base, "-new", faster, "-append", hist, "-label", "pr7")

	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var history []historyEntry
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatal(err)
	}
	m := history[0].Benchmarks["BenchmarkEngineRound/n=1025/p=8n"]
	if m.NsEdge < 50.59 || m.NsEdge > 50.61 {
		t.Errorf("recorded ns_edge = %v, want the median ≈50.6", m.NsEdge)
	}
	for _, want := range []string{`since "pr6"`, "ns/op", "allocs/op", "ns/edge", "%)"} {
		if !strings.Contains(string(log), want) {
			t.Errorf("append log lacks %q:\n%s", want, log)
		}
	}
}

// TestAppendRecordsSpread: an entry records the min and max of the
// ns/op and ns/edge counts beside their medians, and the next append's
// delta line says whether each ns median moved beyond that spread or
// within it. An entry written before the spread fields still loads, and
// a delta against it carries no spread verdict.
func TestAppendRecordsSpread(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", edgeText)
	// ns/op moves inside pr6's 368000–369000, ns/edge below 50.50–50.70.
	within := write(t, dir, "within.txt", strings.NewReplacer(
		"368000 ns/op", "368400 ns/op",
		"369000 ns/op", "368700 ns/op",
		"50.50 ns/edge", "46.60 ns/edge",
		"50.70 ns/edge", "46.80 ns/edge",
	).Replace(edgeText))
	hist := filepath.Join(dir, "hist.json")
	stdoutOf(t, "gate", "-baseline", base, "-new", base, "-append", hist, "-label", "pr6")
	log := string(stdoutOf(t, "gate", "-baseline", base, "-new", within, "-append", hist, "-label", "pr7"))
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	var history []historyEntry
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatal(err)
	}
	m := history[0].Benchmarks["BenchmarkEngineRound/n=1025/p=8n"]
	if m.NsOpMin != 368000 || m.NsOpMax != 369000 || m.NsEdgeMin != 50.50 || m.NsEdgeMax != 50.70 {
		t.Errorf("recorded spread = %+v, want ns/op 368000–369000 and ns/edge 50.5–50.7", m)
	}
	for _, want := range []string{"within spread 3.68e+05–3.69e+05", "beyond spread 50.5–50.7"} {
		if !strings.Contains(log, want) {
			t.Errorf("append log lacks %q:\n%s", want, log)
		}
	}

	// An entry without the spread fields, as the ledger's older ones.
	old := write(t, dir, "old.json", `[{"label": "pr5", "benchmarks": {"BenchmarkEngineRound/n=1025/p=8n": {"ns_op": 400000, "allocs_op": 0, "ns_edge": 55}}}]`)
	log = string(stdoutOf(t, "gate", "-baseline", base, "-new", base, "-append", old, "-label", "pr6"))
	if !strings.Contains(log, `since "pr5"`) || strings.Contains(log, "spread") {
		t.Errorf("delta against an entry without a spread:\n%s", log)
	}
}

// TestAppendRejectsDuplicateLabel: re-running CI for the same PR must
// not double-record the entry.
func TestAppendRejectsDuplicateLabel(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", baselineText)
	hist := filepath.Join(dir, "hist.json")
	args := []string{"-baseline", base, "-new", fresh, "-append", hist, "-label", "pr6"}
	if err := runGate(args); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := runGate(args); err == nil || !strings.Contains(err.Error(), "already recorded") {
		t.Fatalf("duplicate label not rejected: %v", err)
	}
}

// TestAppendRequiresLabel and skips recording on a failed gate: the
// history must only ever contain runs that passed.
func TestAppendGuards(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", baselineText)
	hist := filepath.Join(dir, "hist.json")
	if err := runGate([]string{"-baseline", base, "-new", fresh, "-append", hist}); err == nil {
		t.Fatal("-append without -label accepted")
	}
	regressed := write(t, dir, "bad.txt", strings.ReplaceAll(baselineText, "98 allocs/op", "140 allocs/op"))
	if err := runGate([]string{"-baseline", base, "-new", regressed,
		"-append", hist, "-label", "pr6"}); err == nil {
		t.Fatal("regressed run passed")
	}
	if _, err := os.Stat(hist); !os.IsNotExist(err) {
		t.Error("failed or mislabeled runs wrote a history file")
	}
}

func TestParseBenchLine(t *testing.T) {
	name, metrics, ok := parseBenchLine("BenchmarkEngineRound/n=25-8   	   50000	     25880 ns/op	     512 B/op	      98 allocs/op")
	if !ok || name != "BenchmarkEngineRound/n=25" {
		t.Fatalf("parsed %q, %v", name, ok)
	}
	if metrics["ns/op"] != 25880 || metrics["allocs/op"] != 98 {
		t.Errorf("metrics = %v", metrics)
	}
	for _, junk := range []string{"", "PASS", "goos: linux", "ok  anondyn  1.2s"} {
		if _, _, ok := parseBenchLine(junk); ok {
			t.Errorf("parsed junk line %q", junk)
		}
	}
}

// TestGateVacuousErrorIsNotARegression: a name mismatch must read as
// a configuration error, not a phantom regression.
func TestGateVacuousErrorMessage(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineText)
	fresh := write(t, dir, "new.txt", "BenchmarkSomethingElse-4 10 5 ns/op 0 allocs/op\n")
	err := runGate([]string{"-baseline", base, "-new", fresh})
	if err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("vacuous gate error = %v, want a configuration error", err)
	}
}
