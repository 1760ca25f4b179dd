package main

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn"
)

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]anondyn.Algo{
		"dac": anondyn.AlgoDAC, "DBAC": anondyn.AlgoDBAC, "dbac-pb": anondyn.AlgoDBACPiggyback,
		"megaround": anondyn.AlgoMegaRound, "fullinfo": anondyn.AlgoFullInfo,
		"reliter": anondyn.AlgoReliableIterated, "bacrel": anondyn.AlgoBACReliable,
		"floodmin": anondyn.AlgoFloodMin,
	} {
		got, err := parseAlgo(name)
		if err != nil || got != want {
			t.Errorf("parseAlgo(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseAlgo("paxos"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestParseAdversary(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"complete", "complete"},
		{"halves", "split(2 groups)"},
		{"rotating:3", "rotating(d=3)"},
		{"clustered:4", "clustered(T=4)"},
		{"starve:2", "starve(d=2)"},
		{"random:3,4", "randomDegree(B=3,D=4,extra=0.05)"},
		{"isolate:2", "isolate(2)"},
		{"chasemin", "chaseMin"},
		{"er:0.30", "er(p=0.3)"},
		{"er2:0.30", "er2(p=0.3)"},
	}
	for _, tc := range cases {
		a, err := parseAdversary(tc.spec, 7, 1, 1)
		if err != nil {
			t.Errorf("parseAdversary(%q): %v", tc.spec, err)
			continue
		}
		if a.Name() != tc.want {
			t.Errorf("parseAdversary(%q).Name() = %q, want %q", tc.spec, a.Name(), tc.want)
		}
	}
	if a, err := parseAdversary("fig1", 3, 0, 1); err != nil || !strings.Contains(a.Name(), "fig1") {
		t.Errorf("fig1: %v", err)
	}
	// Registry extensions reach dynasim too: symbolic degrees resolve
	// against the scenario's n and f.
	if a, err := parseAdversary("rotating:crashdeg", 9, 0, 1); err != nil || !strings.Contains(a.Name(), "d=4") {
		t.Errorf("rotating:crashdeg at n=9: %v, %v", a, err)
	}
	for _, bad := range []string{"fig1", "rotating:x", "random:3", "er:zz", "isolate:", "warp", "isolate:9"} {
		n := 7 // fig1 invalid at n=7, as is victim 9
		if _, err := parseAdversary(bad, n, 1, 1); err == nil {
			t.Errorf("parseAdversary(%q) accepted", bad)
		}
	}
}

func TestParseCrashes(t *testing.T) {
	crashes, err := parseCrashes("1@3,4@0")
	if err != nil {
		t.Fatal(err)
	}
	if len(crashes) != 2 || crashes[1].Round != 3 || crashes[4].Round != 0 {
		t.Errorf("crashes = %+v", crashes)
	}
	if got, _ := parseCrashes(""); got != nil {
		t.Error("empty spec should give nil")
	}
	for _, bad := range []string{"1", "1@x", "y@2"} {
		if _, err := parseCrashes(bad); err == nil {
			t.Errorf("parseCrashes(%q) accepted", bad)
		}
	}
}

func TestParseByz(t *testing.T) {
	byz, err := parseByz("2:silent,3:extremist:1,4:equivocate,5:noise,6:laggard:0.5,7:mimic:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(byz) != 6 {
		t.Fatalf("parsed %d strategies, want 6", len(byz))
	}
	for node, wantName := range map[int]string{
		2: "silent", 3: "extremist(1)", 4: "equivocator(0|1)",
		5: "randomNoise", 6: "laggard(0.5)", 7: "mimic(0)",
	} {
		if got := byz[node].Name(); got != wantName {
			t.Errorf("node %d strategy = %q, want %q", node, got, wantName)
		}
	}
	for _, bad := range []string{"2", "x:silent", "2:quantum", "2:extremist:x"} {
		if _, err := parseByz(bad, 1); err == nil {
			t.Errorf("parseByz(%q) accepted", bad)
		}
	}
}

func TestParseInputs(t *testing.T) {
	sp, err := parseInputs("spread", 5, 1)
	if err != nil || len(sp) != 5 || sp[4] != 1 {
		t.Errorf("spread: %v %v", sp, err)
	}
	si, err := parseInputs("split:2", 5, 1)
	if err != nil || si[1] != 0 || si[2] != 1 {
		t.Errorf("split: %v %v", si, err)
	}
	sd, err := parseInputs("split", 6, 1)
	if err != nil || sd[2] != 0 || sd[3] != 1 {
		t.Errorf("split default: %v %v", sd, err)
	}
	ri, err := parseInputs("random", 5, 1)
	if err != nil || len(ri) != 5 {
		t.Errorf("random: %v %v", ri, err)
	}
	if _, err := parseInputs("fibonacci", 5, 1); err == nil {
		t.Error("unknown inputs accepted")
	}
	if _, err := parseInputs("split:x", 5, 1); err == nil {
		t.Error("bad split arg accepted")
	}
}

// TestRunEndToEnd drives the whole CLI path once.
func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-algo", "dac", "-n", "5", "-f", "1",
		"-adversary", "rotating:2", "-crash", "1@2", "-eps", "0.01"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-algo", "nope"}); err == nil {
		t.Error("bad algorithm accepted")
	}
	// The engine has one execution of a round; there is no engine switch.
	if err := run([]string{"-concurrent"}); err == nil {
		t.Error("-concurrent still accepted")
	}
}

// TestRunBatchMode drives the -seeds worker-pool path with a JSON
// report.
func TestRunBatchMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "batch.json")
	if err := run([]string{"-algo", "dac", "-n", "7", "-f", "2",
		"-adversary", "er:0.5", "-inputs", "random",
		"-seeds", "12", "-workers", "3", "-report", out}); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var report batchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if report.Aggregate.Runs != 12 || len(report.Runs) != 12 {
		t.Errorf("report covers %d/%d runs, want 12", report.Aggregate.Runs, len(report.Runs))
	}
	if report.Aggregate.Decided != 12 || report.Aggregate.Violations != 0 {
		t.Errorf("aggregate = %+v", report.Aggregate)
	}
	if report.Runs[0].Seed != 1 || !report.Runs[0].Decided {
		t.Errorf("first run row = %+v", report.Runs[0])
	}

	if err := run([]string{"-seeds", "0", "-report", out}); err == nil {
		t.Error("-seeds 0 accepted")
	}
}

// TestSaveSpecThenRunSpec: the flags → artifact → sweep round trip.
func TestSaveSpecThenRunSpec(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "er.yaml")
	if err := run([]string{"-algo", "dac", "-n", "7", "-f", "1",
		"-adversary", "er:0.5", "-inputs", "random",
		"-crash", "1@3", "-byz", "", "-seeds", "1",
		"-save-spec", saved}); err != nil {
		t.Fatalf("save-spec run: %v", err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatalf("spec not written: %v", err)
	}
	for _, want := range []string{"ns: [7]", "er:0.5", "nodes: [1]", "rounds: [3]"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved spec missing %q:\n%s", want, data)
		}
	}
	if err := run([]string{"-spec", saved, "-seeds", "5"}); err != nil {
		t.Fatalf("running saved spec: %v", err)
	}
}

// TestSaveSpecCapturesByzantine: strategies and their arguments
// survive the capture.
func TestSaveSpecCapturesByzantine(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "byz.yaml")
	if err := run([]string{"-algo", "dbac", "-n", "11", "-f", "2",
		"-byz", "4:equivocate,9:extremist:1", "-save-spec", saved}); err != nil {
		t.Fatalf("save-spec run: %v", err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy: equivocate", "strategy: extremist", "args: [1.0]"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved spec missing %q:\n%s", want, data)
		}
	}
}

func TestSpecModeRejectsPerRunViews(t *testing.T) {
	if err := run([]string{"-spec", "x.yaml", "-series"}); err == nil {
		t.Error("-spec with -series accepted")
	}
	if err := run([]string{"-spec", "does-not-exist.yaml"}); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{"-adversary", "complete", "-randports", "-save-spec", "x.yaml"}); err == nil {
		t.Error("-save-spec with -randports accepted")
	}
}

// TestCPUProfileFlag: -cpuprofile writes a complete profile on the
// success path and on an early error return alike, and an uncreatable
// file fails the command before anything runs.
func TestCPUProfileFlag(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "run.prof")
	if err := run([]string{"-n", "9", "-adversary", "rotating:3", "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	assertPprof(t, prof)

	early := filepath.Join(dir, "early.prof")
	if err := run([]string{"-algo", "nope", "-cpuprofile", early}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	assertPprof(t, early)

	out := filepath.Join(dir, "batch.json")
	err := run([]string{"-seeds", "3", "-report", out, "-cpuprofile", filepath.Join(dir, "missing", "x.prof")})
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("uncreatable profile file: err = %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("the batch ran although the profile file could not be created")
	}
}

// TestExecTraceFlag: -exectrace writes a complete runtime execution
// trace on the success path and on an early error return alike, and an
// uncreatable file fails the command before anything runs.
func TestExecTraceFlag(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "run.trace")
	if err := run([]string{"-n", "9", "-adversary", "rotating:3", "-exectrace", tr}); err != nil {
		t.Fatal(err)
	}
	assertExecTrace(t, tr)

	early := filepath.Join(dir, "early.trace")
	if err := run([]string{"-algo", "nope", "-exectrace", early}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	assertExecTrace(t, early)

	out := filepath.Join(dir, "batch.json")
	err := run([]string{"-seeds", "3", "-report", out, "-exectrace", filepath.Join(dir, "missing", "x.trace")})
	if err == nil || !strings.Contains(err.Error(), "-exectrace") {
		t.Fatalf("uncreatable trace file: err = %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("the batch ran although the trace file could not be created")
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

// TestBatchReportUndecidedRows: a batch whose runs exhaust the round
// budget has no output range to report (Result.OutputRange is +Inf,
// which encoding/json rejects). Its rows carry "output_range": null
// and an empty CSV cell beside decided=false — and a fully decided
// batch still renders the bytes it always did (the golden files were
// written by the pre-fix binary).
func TestBatchReportUndecidedRows(t *testing.T) {
	dir := t.TempDir()
	undecided := []string{"-algo", "dac", "-n", "9", "-adversary", "er:0.01", "-seeds", "3", "-rounds", "3"}
	decided := []string{"-algo", "dac", "-n", "9", "-adversary", "rotating:5", "-inputs", "random",
		"-eps", "0.1", "-seeds", "3", "-workers", "1"}
	render := func(args []string, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run(append(args[:len(args):len(args)], "-report", path)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var doc struct {
		Runs []struct {
			Decided bool     `json:"decided"`
			Range   *float64 `json:"output_range"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(render(undecided, "u.json"), &doc); err != nil {
		t.Fatalf("undecided report is not valid JSON: %v", err)
	}
	if len(doc.Runs) != 3 {
		t.Fatalf("report has %d rows, want 3", len(doc.Runs))
	}
	for i, row := range doc.Runs {
		if row.Decided || row.Range != nil {
			t.Errorf("row %d = {decided %v, output_range %v}, want undecided and null", i, row.Decided, row.Range)
		}
	}
	rows, err := csv.NewReader(bytes.NewReader(render(undecided, "u.csv"))).ReadAll()
	if err != nil {
		t.Fatalf("undecided CSV does not parse: %v", err)
	}
	for _, row := range rows[1:] {
		if row[1] != "false" || row[3] != "" {
			t.Errorf("CSV row %v, want decided=false and an empty output_range", row)
		}
	}
	if html := render(undecided, "u.html"); bytes.Contains(html, []byte("Inf")) {
		t.Error("undecided HTML report prints an infinite range")
	}

	for _, ext := range []string{"json", "csv"} {
		want, err := os.ReadFile(filepath.Join("testdata", "batch_decided."+ext))
		if err != nil {
			t.Fatal(err)
		}
		if got := render(decided, "d."+ext); !bytes.Equal(got, want) {
			t.Errorf("decided batch %s report changed:\n%s\nwant:\n%s", ext, got, want)
		}
	}
}
