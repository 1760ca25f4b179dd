package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anondyn/internal/report"
	"anondyn/internal/spec"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	// E4 is the fastest experiment.
	if err := run([]string{"-exp", "E4", "-csv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e4.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if len(data) == 0 {
		t.Error("empty csv")
	}
}

func TestRunSweepWithReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := run([]string{"-sweep", "-ns", "5,7", "-algos", "dac",
		"-advs", "complete,random:2,3", "-seeds", "4", "-workers", "2",
		"-report", out}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	// 2 sizes × 1 algorithm × 2 adversaries (random:2,3 spans the comma).
	if len(rep.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(rep.Cells))
	}
	if rep.SeedsPerCell != 4 || rep.Cells[0].Runs != 4 {
		t.Errorf("seeds per cell = %d, first cell runs = %d",
			rep.SeedsPerCell, rep.Cells[0].Runs)
	}
	if rep.Cells[1].Adversary != "random:2,3" {
		t.Errorf("adversary label = %q", rep.Cells[1].Adversary)
	}
}

func TestRunSweepBadAxes(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "-ns", "x"},
		{"-sweep", "-algos", "paxos"},
		{"-sweep", "-advs", "warp"},
		{"-sweep", "-epss", "zz"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSpecMatchesFlagSweep is the parity contract: a spec file
// reproduces the corresponding flag-driven sweep row-for-row at equal
// seeds.
func TestSpecMatchesFlagSweep(t *testing.T) {
	dir := t.TempDir()
	flagOut := filepath.Join(dir, "flags.json")
	if err := run([]string{"-sweep", "-ns", "5,7", "-algos", "dac,fullinfo",
		"-advs", "complete,rotating:3", "-seeds", "3", "-seed", "42",
		"-report", flagOut}); err != nil {
		t.Fatalf("flag sweep: %v", err)
	}

	specPath := filepath.Join(dir, "parity.yaml")
	specText := `name: parity
description: flag-parity fixture
ns: [5, 7]
epss: [1e-3]
algorithms: [dac, fullinfo]
adversaries: ["complete", "rotating:3"]
seeds_per_cell: 3
base_seed: 42
max_rounds: 20000
`
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		t.Fatal(err)
	}
	specOut := filepath.Join(dir, "spec.json")
	if err := run([]string{"-spec", specPath, "-report", specOut}); err != nil {
		t.Fatalf("spec sweep: %v", err)
	}

	var flagReport, specReport report.Sweep
	for path, dst := range map[string]*report.Sweep{flagOut: &flagReport, specOut: &specReport} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatal(err)
		}
	}
	if len(flagReport.Cells) != 8 {
		t.Fatalf("flag sweep produced %d cells, want 8", len(flagReport.Cells))
	}
	if !reflect.DeepEqual(flagReport.Cells, specReport.Cells) {
		t.Errorf("spec rows differ from flag rows:\n%+v\n%+v", flagReport.Cells, specReport.Cells)
	}
}

// TestSaveSpecRoundTrip: -save-spec emits a file whose -spec run
// reproduces the sweep that saved it.
func TestSaveSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "saved.yaml")
	flagOut := filepath.Join(dir, "flags.json")
	if err := run([]string{"-sweep", "-ns", "5,7", "-advs", "er:0.6,random:2,3",
		"-seeds", "2", "-report", flagOut, "-save-spec", saved}); err != nil {
		t.Fatalf("sweep with -save-spec: %v", err)
	}
	specOut := filepath.Join(dir, "spec.json")
	if err := run([]string{"-spec", saved, "-report", specOut}); err != nil {
		t.Fatalf("saved spec failed to run: %v", err)
	}
	var flagReport, specReport report.Sweep
	for path, dst := range map[string]*report.Sweep{flagOut: &flagReport, specOut: &specReport} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(flagReport.Cells, specReport.Cells) {
		t.Errorf("saved-spec rows differ from the sweep that saved them:\n%+v\n%+v",
			flagReport.Cells, specReport.Cells)
	}
}

// TestSpecDirSmoke mirrors the CI specs job on the committed files:
// every examples/specs artifact must run at one seed.
func TestSpecDirSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every committed spec")
	}
	if err := run([]string{"-spec-dir", "../../examples/specs", "-seeds", "1"}); err != nil {
		t.Fatalf("spec-dir smoke: %v", err)
	}
}

func TestSpecModeBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", "does-not-exist.yaml"},
		{"-spec-dir", "does-not-exist"},
		{"-spec", "x.yaml", "-spec-dir", "y"},
		{"-save-spec", "out.yaml"}, // wants -sweep
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestAdvsSymbolicDegrees: the registry grammar's symbolic degree
// tokens span -advs list commas like numeric arguments do.
func TestAdvsSymbolicDegrees(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sym.json")
	if err := run([]string{"-sweep", "-ns", "9", "-advs",
		"random:4,crashdeg,0.05,rotating:crashdeg", "-seeds", "2", "-report", out}); err != nil {
		t.Fatalf("symbolic -advs: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2 (random spec spans its commas)", len(rep.Cells))
	}
	if rep.Cells[0].Adversary != "random:4,crashdeg,0.05" || rep.Cells[1].Adversary != "rotating:crashdeg" {
		t.Errorf("adversary labels = %q, %q", rep.Cells[0].Adversary, rep.Cells[1].Adversary)
	}
}

func TestServeModeFlagExclusion(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "127.0.0.1:0", "-sweep"},
		{"-serve", "127.0.0.1:0", "-spec", "x.yaml"},
		{"-serve", "127.0.0.1:0", "-spec-dir", "dir"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-serve") {
			t.Errorf("run(%v) = %v, want -serve exclusion error", args, err)
		}
	}
	// A bad listen address surfaces as an error rather than a hang.
	if err := run([]string{"-serve", "256.256.256.256:99999"}); err == nil {
		t.Error("bad -serve address accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpecStdoutReportIsParseable: with a stdout report target the
// document is ALL of stdout — no description banner ahead of it (the
// committed spec has one), no table after it.
func TestSpecStdoutReportIsParseable(t *testing.T) {
	const specPath = "../../examples/specs/er-crash-sweep.yaml"
	out := captureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-seeds", "2", "-report", "json"})
	})
	var rep report.Sweep
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("-report json stdout is not one JSON document: %v\n%s", err, out)
	}
	if len(rep.Cells) == 0 {
		t.Error("JSON report has no cells")
	}

	out = captureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-seeds", "2", "-report", "csv"})
	})
	header := strings.Join(spec.Columns(false), ",")
	if first, _, _ := strings.Cut(string(out), "\n"); first != header {
		t.Errorf("-report csv stdout starts with %q, want the header %q", first, header)
	}

	// The human mode keeps its banner.
	out = captureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-seeds", "1"})
	})
	if !strings.HasPrefix(string(out), "# ") {
		t.Errorf("table mode lost the description banner:\n%s", out)
	}
}

// TestCPUProfileFlag: -cpuprofile writes a complete profile on the
// success path and on an early error return alike, and an uncreatable
// file fails the command before anything runs.
func TestCPUProfileFlag(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "sweep.prof")
	if err := run([]string{"-sweep", "-ns", "5", "-seeds", "3", "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	assertPprof(t, prof)

	early := filepath.Join(dir, "early.prof")
	if err := run([]string{"-exp", "E99", "-cpuprofile", early}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	assertPprof(t, early)

	out := filepath.Join(dir, "sweep.json")
	err := run([]string{"-sweep", "-ns", "5", "-seeds", "3", "-report", out,
		"-cpuprofile", filepath.Join(dir, "missing", "x.prof")})
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("uncreatable profile file: err = %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("the sweep ran although the profile file could not be created")
	}
}

// TestExecTraceFlag: -exectrace writes a complete runtime execution
// trace on the success path and on an early error return alike, and an
// uncreatable file fails the command before anything runs.
func TestExecTraceFlag(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "sweep.trace")
	if err := run([]string{"-sweep", "-ns", "5", "-seeds", "3", "-exectrace", tr}); err != nil {
		t.Fatal(err)
	}
	assertExecTrace(t, tr)

	early := filepath.Join(dir, "early.trace")
	if err := run([]string{"-exp", "E99", "-exectrace", early}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	assertExecTrace(t, early)

	out := filepath.Join(dir, "sweep.json")
	err := run([]string{"-sweep", "-ns", "5", "-seeds", "3", "-report", out,
		"-exectrace", filepath.Join(dir, "missing", "x.trace")})
	if err == nil || !strings.Contains(err.Error(), "-exectrace") {
		t.Fatalf("uncreatable trace file: err = %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("the sweep ran although the trace file could not be created")
	}
}

// assertExecTrace checks that path holds a runtime execution trace: a
// "go 1.N trace" header followed by event batches.
func assertExecTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("go 1.")) || !bytes.Contains(data[:min(len(data), 16)], []byte(" trace")) || len(data) <= 16 {
		t.Fatalf("%s is not an execution trace (%d bytes, starts %q)", path, len(data), data[:min(len(data), 16)])
	}
}

// assertPprof checks that path holds a CPU profile: pprof files are
// gzip-compressed protobuf, so a clean, non-empty inflate is the check
// the standard library lets a test make.
func assertPprof(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a pprof file: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("%s: profile inflates to %d bytes (err %v)", path, len(body), err)
	}
}

// TestStdoutReportWithSaveSpec: with a stdout report target, stdout
// carries the report document and nothing else, even when -save-spec
// writes a file alongside it.
func TestStdoutReportWithSaveSpec(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "b.yaml")
	tmp, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	err = run([]string{"-sweep", "-ns", "5", "-seeds", "2", "-save-spec", saved, "-report", "json"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, data)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Runs != 2 {
		t.Errorf("report cells = %+v, want one cell of 2 runs", rep.Cells)
	}
	if _, err := os.Stat(saved); err != nil {
		t.Errorf("spec not written: %v", err)
	}
}
