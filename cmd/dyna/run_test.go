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
	"anondyn/internal/spec"
)

// flagScenario compiles args the way dyna run does — flags → sweep → grid —
// and returns the Scenario of the run they describe, as the grid
// assembles it. The probe run that assembles it is cut to one round.
func flagScenario(t *testing.T, args ...string) anondyn.Scenario {
	t.Helper()
	fl, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	_, grid, err := fl.compile()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var got anondyn.Scenario
	wrapMutate(&grid, func(s *anondyn.Scenario) {
		got = *s
		s.MaxRounds = 1
	})
	err = grid.RunEach(anondyn.BatchOptions{Workers: 1},
		func(anondyn.Cell, int, int, int64, *anondyn.Result) error { return nil })
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return got
}

// TestParseAlgo: every -algo spelling, in any case, reaches the run's
// Scenario as its algorithm.
func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]anondyn.Algo{
		"dac": anondyn.AlgoDAC, "DBAC": anondyn.AlgoDBAC, "dbac-pb": anondyn.AlgoDBACPiggyback,
		"megaround": anondyn.AlgoMegaRound, "fullinfo": anondyn.AlgoFullInfo,
		"reliter": anondyn.AlgoReliableIterated, "bacrel": anondyn.AlgoBACReliable,
		"floodmin": anondyn.AlgoFloodMin,
	} {
		// Binary inputs suit every algorithm (floodmin accepts no other).
		if got := flagScenario(t, "-algo", name, "-inputs", "split").Algorithm; got != want {
			t.Errorf("-algo %s runs %v, want %v", name, got, want)
		}
	}
	if err := runScenario([]string{"-algo", "paxos"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestParseAdversary: the -adversary grammar resolves through the
// shared factory registry against the scenario's n and f.
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
		s := flagScenario(t, "-n", "7", "-f", "1", "-adversary", tc.spec)
		if got := s.Adversary.Name(); got != tc.want {
			t.Errorf("-adversary %s runs %q, want %q", tc.spec, got, tc.want)
		}
	}
	if s := flagScenario(t, "-n", "3", "-adversary", "fig1"); !strings.Contains(s.Adversary.Name(), "fig1") {
		t.Errorf("fig1 runs %q", s.Adversary.Name())
	}
	// Symbolic degrees resolve against the scenario's n and f.
	if s := flagScenario(t, "-n", "9", "-adversary", "rotating:crashdeg"); !strings.Contains(s.Adversary.Name(), "d=4") {
		t.Errorf("rotating:crashdeg at n=9 runs %q, want d=4", s.Adversary.Name())
	}
	for _, bad := range []string{"fig1", "rotating:x", "random:3", "er:zz", "isolate:", "warp", "isolate:9"} {
		// fig1 is invalid at n=7, as is victim 9.
		if err := runScenario([]string{"-n", "7", "-f", "1", "-adversary", bad}); err == nil {
			t.Errorf("-adversary %s accepted", bad)
		}
	}
}

func TestParseCrashes(t *testing.T) {
	crashes, err := parseCrashes("1@3,4@0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crashes, &spec.Crashes{NodeList: []int{1, 4}, Rounds: []int{3, 0}}) {
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
	s := flagScenario(t, "-n", "7", "-f", "2", "-crash", "1@3,4@0")
	if want := map[int]anondyn.Crash{1: anondyn.CrashAt(3), 4: anondyn.CrashAt(0)}; !reflect.DeepEqual(s.Crashes, want) {
		t.Errorf("-crash 1@3,4@0 runs crashes %v, want %v", s.Crashes, want)
	}
	// A node crashes once: a repeated node is rejected, not overwritten.
	err = runScenario([]string{"-n", "7", "-f", "2", "-crash", "1@2,1@5"})
	if err == nil || !strings.Contains(err.Error(), "crashes.nodes: duplicate node 1") {
		t.Errorf("-crash 1@2,1@5: err = %v", err)
	}
	// A victim outside the network fails when the grid compiles, before
	// any run (a run-time failure would cite the sweep task).
	err = runScenario([]string{"-n", "11", "-crash", "20@2"})
	if err == nil || !strings.Contains(err.Error(), "crashes.nodes: cell n=11") || strings.Contains(err.Error(), "task") {
		t.Errorf("-n 11 -crash 20@2: err = %v", err)
	}
}

// TestParseByz: each -byz entry casts its node with its strategy.
func TestParseByz(t *testing.T) {
	s := flagScenario(t, "-algo", "dbac", "-n", "31", "-f", "6", "-seed", "9",
		"-byz", "2:silent,3:extremist:1,4:equivocate,5:noise,6:laggard:0.5,7:mimic:0")
	if len(s.Byzantine) != 6 {
		t.Fatalf("cast %d nodes, want 6", len(s.Byzantine))
	}
	for node, wantName := range map[int]string{
		2: "silent", 3: "extremist(1)", 4: "equivocator(0|1)",
		5: "randomNoise", 6: "laggard(0.5)", 7: "mimic(0)",
	} {
		if got := s.Byzantine[node].Name(); got != wantName {
			t.Errorf("node %d strategy = %q, want %q", node, got, wantName)
		}
	}
	for _, bad := range []string{"2", "x:silent", "2:quantum", "2:extremist:x"} {
		if err := runScenario([]string{"-algo", "dbac", "-n", "11", "-f", "2", "-byz", bad}); err == nil {
			t.Errorf("-byz %s accepted", bad)
		}
	}
	// A node has one strategy: a node cast twice is rejected.
	err := runScenario([]string{"-algo", "dbac", "-n", "11", "-f", "2", "-byz", "3:silent,3:noise"})
	if err == nil || !strings.Contains(err.Error(), "byzantine[1].nodes: node 3 already cast") {
		t.Errorf("-byz 3:silent,3:noise: err = %v", err)
	}
}

// TestParseInputs: each -inputs generator reaches the run's input
// vector.
func TestParseInputs(t *testing.T) {
	if sp := flagScenario(t, "-n", "5", "-inputs", "spread").Inputs; len(sp) != 5 || sp[4] != 1 {
		t.Errorf("spread: %v", sp)
	}
	if si := flagScenario(t, "-n", "5", "-inputs", "split:2").Inputs; si[1] != 0 || si[2] != 1 {
		t.Errorf("split:2: %v", si)
	}
	if sd := flagScenario(t, "-n", "6", "-inputs", "split").Inputs; sd[2] != 0 || sd[3] != 1 {
		t.Errorf("split default: %v", sd)
	}
	ri := flagScenario(t, "-n", "5", "-inputs", "random", "-seed", "3").Inputs
	if !reflect.DeepEqual(ri, anondyn.RandomInputs(5, 3)) {
		t.Errorf("random: %v, want the run seed's RandomInputs", ri)
	}
	for _, bad := range []string{"fibonacci", "split:x"} {
		if err := runScenario([]string{"-n", "5", "-inputs", bad}); err == nil {
			t.Errorf("-inputs %s accepted", bad)
		}
	}
}

// TestRunEndToEnd drives the whole CLI path once.
func TestRunEndToEnd(t *testing.T) {
	if err := runScenario([]string{"-algo", "dac", "-n", "5", "-f", "1",
		"-adversary", "rotating:2", "-crash", "1@2", "-eps", "0.01"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := runScenario([]string{"-algo", "nope"}); err == nil {
		t.Error("bad algorithm accepted")
	}
	// The engine has one execution of a round; there is no engine switch.
	if err := runScenario([]string{"-concurrent"}); err == nil {
		t.Error("-concurrent still accepted")
	}
	if err := runScenario([]string{"-adversary", "complete", "-randports", "-save-spec", "x.yaml"}); err == nil {
		t.Error("-save-spec with -randports accepted")
	}
}

// TestRunBatchMode drives the -seeds worker-pool path with a JSON
// report.
func TestRunBatchMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "batch.json")
	if err := runScenario([]string{"-algo", "dac", "-n", "7", "-f", "2",
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

	if err := runScenario([]string{"-seeds", "0", "-report", out}); err == nil {
		t.Error("-seeds 0 accepted")
	}
}

// TestSaveSpecThenRunSpec: the flags → artifact → sweep round trip.
func TestSaveSpecThenRunSpec(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "er.yaml")
	if err := runScenario([]string{"-algo", "dac", "-n", "7", "-f", "1",
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
	if err := run([]string{"sweep", "-spec", saved, "-seeds", "5"}); err != nil {
		t.Fatalf("running saved spec: %v", err)
	}
}

// TestSaveSpecCapturesByzantine: strategies and their arguments
// survive the capture.
func TestSaveSpecCapturesByzantine(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "byz.yaml")
	if err := runScenario([]string{"-algo", "dbac", "-n", "11", "-f", "2",
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
		if err := runScenario(append(args[:len(args):len(args)], "-report", path)); err != nil {
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

// TestSavedSpecReproducesBatch is the flag ↔ saved-spec parity
// contract: loading the spec a batch saved and running its grid yields
// the aggregate the batch reported, bandwidth tally included.
func TestSavedSpecReproducesBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"crashes", []string{"-n", "7", "-f", "2", "-adversary", "rotating:3", "-crash", "1@3,4@6"}},
		// ε = 0.1 keeps the Byzantine rows to a few thousand rounds.
		{"silent-noise-random", []string{"-algo", "dbac", "-n", "11", "-f", "2", "-eps", "0.1",
			"-byz", "2:silent,5:noise", "-inputs", "random"}},
		{"equivocate-extremist", []string{"-algo", "dbac", "-n", "11", "-f", "2", "-eps", "0.1",
			"-byz", "4:equivocate,9:extremist:1"}},
		{"laggard-mimic-split", []string{"-algo", "dbac", "-n", "11", "-f", "2", "-eps", "0.1",
			"-byz", "2:laggard:0.5,5:mimic:0", "-inputs", "split:4"}},
		{"megaround", []string{"-algo", "megaround", "-n", "7", "-megat", "3", "-adversary", "rotating:3"}},
		{"piggyback-bandwidth", []string{"-algo", "dbac-pb", "-n", "11", "-f", "2", "-eps", "0.1",
			"-byz", "3:extremist:5,7:laggard:0.2", "-window", "2", "-maxbytes", "2000", "-seed", "11"}},
		{"pend", []string{"-n", "9", "-adversary", "er:0.3", "-pend", "5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, saved := filepath.Join(dir, "out.json"), filepath.Join(dir, "s.yaml")
			if err := runScenario(append(tc.args, "-seeds", "4", "-report", out, "-save-spec", saved)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var doc batchReport
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			_, grid, err := spec.Load(saved, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 {
				t.Fatalf("saved spec runs %d cells, want 1", len(rows))
			}
			if !reflect.DeepEqual(rows[0].BatchReport, doc.Aggregate) {
				t.Errorf("saved spec reports\n%+v\nthe batch reported\n%+v", rows[0].BatchReport, doc.Aggregate)
			}
			if doc.Aggregate.Bytes.Mean == 0 {
				t.Error("the batch accounted no bandwidth")
			}
		})
	}
}
