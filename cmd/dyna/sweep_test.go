package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anondyn"
	"anondyn/internal/report"
	"anondyn/internal/spec"
)

func TestTablesList(t *testing.T) {
	if err := run([]string{"tables", "-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestTablesUnknownExperiment(t *testing.T) {
	if err := run([]string{"tables", "-exp", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTablesSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	// E4 is the fastest experiment.
	if err := run([]string{"tables", "-exp", "E4", "-csv", dir}); err != nil {
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

// readSweep reads a JSON sweep report.
func readSweep(t *testing.T, path string) report.Sweep {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s is not a JSON sweep report: %v", path, err)
	}
	return rep
}

func TestSweepWithReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := run([]string{"sweep", "-ns", "5,7", "-algos", "dac",
		"-advs", "complete,random:2,3", "-seeds", "4", "-workers", "2",
		"-report", out}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	rep := readSweep(t, out)
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

func TestSweepBadAxes(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-ns", "x"},
		{"sweep", "-algos", "paxos"},
		{"sweep", "-advs", "warp"},
		{"sweep", "-epss", "zz"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSpecMatchesFlagSweep is the parity contract: a spec file
// reproduces the corresponding axis-flag sweep row-for-row at equal
// seeds.
func TestSpecMatchesFlagSweep(t *testing.T) {
	dir := t.TempDir()
	flagOut := filepath.Join(dir, "flags.json")
	if err := run([]string{"sweep", "-ns", "5,7", "-algos", "dac,fullinfo",
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
	if err := run([]string{"sweep", "-spec", specPath, "-report", specOut}); err != nil {
		t.Fatalf("spec sweep: %v", err)
	}
	flagReport, specReport := readSweep(t, flagOut), readSweep(t, specOut)
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
	if err := run([]string{"sweep", "-ns", "5,7", "-advs", "er:0.6,random:2,3",
		"-seeds", "2", "-report", flagOut, "-save-spec", saved}); err != nil {
		t.Fatalf("sweep with -save-spec: %v", err)
	}
	specOut := filepath.Join(dir, "spec.json")
	if err := run([]string{"sweep", "-spec", saved, "-report", specOut}); err != nil {
		t.Fatalf("saved spec failed to run: %v", err)
	}
	flagReport, specReport := readSweep(t, flagOut), readSweep(t, specOut)
	if !reflect.DeepEqual(flagReport.Cells, specReport.Cells) {
		t.Errorf("saved-spec rows differ from the sweep that saved them:\n%+v\n%+v",
			flagReport.Cells, specReport.Cells)
	}
}

// TestSpecDirSmoke mirrors the CI specs job on the committed files:
// every examples/specs artifact must validate, and run at one seed.
func TestSpecDirSmoke(t *testing.T) {
	if err := run([]string{"validate", "-spec-dir", "../../examples/specs"}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if testing.Short() {
		t.Skip("runs every committed spec")
	}
	if err := run([]string{"sweep", "-spec-dir", "../../examples/specs", "-seeds", "1"}); err != nil {
		t.Fatalf("spec-dir smoke: %v", err)
	}
}

func TestSpecModeBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-spec", "does-not-exist.yaml"},
		{"sweep", "-spec-dir", "does-not-exist"},
		{"sweep", "-spec", "x.yaml", "-spec-dir", "y"},
		{"sweep", "-spec", specPath, "-save-spec", "out.yaml"}, // the file already is the sweep
		{"validate", "-spec", "does-not-exist.yaml"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSpecDirStdoutReportRejected: -spec-dir renders one document per
// spec, and back-to-back CSV tables or HTML pages on stdout do not
// parse (the header repeats and no column names the spec). Locally and
// over a fleet, the combination fails before any run and names the
// fix; JSON documents carry their spec, so that stdout form stays.
func TestSpecDirStdoutReportRejected(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.yaml", "b.yaml"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []string{"csv", "html"} {
		for _, fleet := range [][]string{nil, {"-fleet", "127.0.0.1:1"}} {
			args := append([]string{"sweep", "-spec-dir", dir, "-seeds", "1", "-report", format}, fleet...)
			out, _, err := capture(t, func() error { return run(args) })
			if err == nil || !strings.Contains(err.Error(), "-report json") || !strings.Contains(err.Error(), "path target") {
				t.Errorf("%q: err = %v, want the rejection naming a path target or -report json", args, err)
			}
			if len(out) != 0 {
				t.Errorf("%q printed before rejecting:\n%s", args, out)
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(stdoutOf(t, "sweep", "-spec-dir", dir, "-seeds", "1", "-report", "json")))
	for i := 0; i < 2; i++ {
		var rep report.Sweep
		if err := dec.Decode(&rep); err != nil || rep.Spec == "" {
			t.Fatalf("document %d: spec %q, err %v", i, rep.Spec, err)
		}
	}
}

// TestAdvsSymbolicDegrees: the registry grammar's symbolic degree
// tokens span -advs list commas like numeric arguments do.
func TestAdvsSymbolicDegrees(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sym.json")
	if err := run([]string{"sweep", "-ns", "9", "-advs",
		"random:4,crashdeg,0.05,rotating:crashdeg", "-seeds", "2", "-report", out}); err != nil {
		t.Fatalf("symbolic -advs: %v", err)
	}
	rep := readSweep(t, out)
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2 (random spec spans its commas)", len(rep.Cells))
	}
	if rep.Cells[0].Adversary != "random:4,crashdeg,0.05" || rep.Cells[1].Adversary != "rotating:crashdeg" {
		t.Errorf("adversary labels = %q, %q", rep.Cells[0].Adversary, rep.Cells[1].Adversary)
	}
}

// TestSpecStdoutReportIsParseable: with a stdout report target the
// document is ALL of stdout — no description banner ahead of it (the
// committed spec has one), no table after it — and its cells equal a
// direct Load and Grid.Run of the same file and seeds.
func TestSpecStdoutReportIsParseable(t *testing.T) {
	out := stdoutOf(t, "sweep", "-spec", specPath, "-seeds", "2", "-report", "json")
	var rep report.Sweep
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("-report json stdout is not one JSON document: %v\n%s", err, out)
	}
	sw, grid, err := spec.Load(specPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec != sw.Name || rep.SeedsPerCell != 2 {
		t.Errorf("envelope = {spec: %q, seeds: %d}, want {%q, 2}", rep.Spec, rep.SeedsPerCell, sw.Name)
	}
	if !reflect.DeepEqual(rep.Cells, rows) {
		t.Errorf("report cells differ from a direct run:\nreport %+v\ndirect %+v", rep.Cells, rows)
	}

	out = stdoutOf(t, "sweep", "-spec", specPath, "-seeds", "2", "-report", "csv")
	header := strings.Join(spec.Columns(false), ",")
	if first, _, _ := strings.Cut(string(out), "\n"); first != header {
		t.Errorf("-report csv stdout starts with %q, want the header %q", first, header)
	}

	// The human mode keeps its banner.
	out = stdoutOf(t, "sweep", "-spec", specPath, "-seeds", "1")
	if want := "# " + sw.Description + "\n"; !strings.HasPrefix(string(out), want) {
		t.Errorf("table mode does not start with the description banner %q:\n%s", want, out)
	}
}

// TestStdoutReportWithSaveSpec: with a stdout report target, stdout
// carries the report document and nothing else, even when -save-spec
// writes a file alongside it — for an axis sweep and a scenario run.
func TestStdoutReportWithSaveSpec(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		saved := filepath.Join(t.TempDir(), "b.yaml")
		out := stdoutOf(t, "sweep", "-ns", "5", "-seeds", "2", "-save-spec", saved, "-report", "json")
		var rep report.Sweep
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("stdout is not the JSON report: %v\n%s", err, out)
		}
		if len(rep.Cells) != 1 || rep.Cells[0].Runs != 2 {
			t.Errorf("report cells = %+v, want one cell of 2 runs", rep.Cells)
		}
		if _, err := os.Stat(saved); err != nil {
			t.Errorf("spec not written: %v", err)
		}
	})
	t.Run("run", func(t *testing.T) {
		saved := filepath.Join(t.TempDir(), "c.yaml")
		out := stdoutOf(t, "run", "-n", "5", "-report", "csv", "-save-spec", saved)
		rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
		if err != nil {
			t.Fatalf("stdout is not the CSV report: %v\n%s", err, out)
		}
		if len(rows) != 2 || !reflect.DeepEqual(rows[0], []string{"seed", "decided", "rounds", "output_range"}) {
			t.Errorf("stdout CSV = %q, want the header and one run", rows)
		}
		if _, err := os.Stat(saved); err != nil {
			t.Errorf("spec not written: %v", err)
		}
	})
}
