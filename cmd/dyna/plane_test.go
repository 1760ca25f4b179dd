package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"anondyn"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

func TestFleetRejectsBadFlags(t *testing.T) {
	if err := run([]string{"sweep", "-fleet", "h:1"}); err == nil || !strings.Contains(err.Error(), "-spec") {
		t.Errorf("missing -spec: %v", err)
	}
	if err := run([]string{"sweep", "-fleet", "h:1", "-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"sweep", "-spec", "no-such-file.yaml", "-fleet", "h:1"}); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{"sweep", "-spec", specPath, "-spec-dir", ".", "-fleet", "h:1"}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-spec with -spec-dir: %v", err)
	}
	if err := run([]string{"sweep", "-spec-dir", t.TempDir(), "-fleet", "h:1"}); err == nil ||
		!strings.Contains(err.Error(), "no scenario files") {
		t.Errorf("empty -spec-dir: %v", err)
	}
}

func TestFleetJSONReport(t *testing.T) {
	fleet := startWorkers(t, 2)
	out := filepath.Join(t.TempDir(), "dist.json")
	err := run([]string{
		"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "3",
		"-timeout", (10 * time.Second).String(), "-quiet", "-report", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}

	// The distributed rows must equal a local run of the same spec.
	sw, grid, err := spec.Load(specPath, 3)
	if err != nil {
		t.Fatal(err)
	}
	localRows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec != sw.Name || rep.SeedsPerCell != 3 {
		t.Errorf("envelope = {spec: %q, seeds: %d}, want {%q, 3}", rep.Spec, rep.SeedsPerCell, sw.Name)
	}
	if !reflect.DeepEqual(rep.Cells, localRows) {
		t.Errorf("distributed cells differ from local run:\ndist  %+v\nlocal %+v", rep.Cells, localRows)
	}
}

func TestFleetCSVReport(t *testing.T) {
	fleet := startWorkers(t, 1)
	out := filepath.Join(t.TempDir(), "dist.csv")
	err := run([]string{
		"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "1",
		"-quiet", "-report", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header plus one row per cell (er-crash-sweep has 4 cells).
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[0], "adversary") {
		t.Errorf("CSV header missing: %q", lines[0])
	}
}

// TestFleetSpecDirBatch: the batch mode must run every spec in the
// directory through the coordinator over ONE worker fleet (the workers
// are never restarted between sweeps), producing per-spec rows
// identical to single-spec runs.
func TestFleetSpecDirBatch(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a-first.yaml", "b-second.yaml"} {
		data, err := os.ReadFile(specPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-spec file must be ignored, not parsed.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a spec"), 0o644); err != nil {
		t.Fatal(err)
	}
	fleet := startWorkers(t, 2)
	// A file report target fans out to one derived file per spec
	// (out.json → out-a-first.json, out-b-second.json).
	repBase := filepath.Join(t.TempDir(), "out.json")
	err := run([]string{
		"sweep", "-spec-dir", dir, "-fleet", fleet, "-seeds", "2",
		"-timeout", (10 * time.Second).String(), "-quiet", "-report", repBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stem := range []string{"a-first", "b-second"} {
		path := strings.TrimSuffix(repBase, ".json") + "-" + stem + ".json"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("per-spec report missing: %v", err)
		}
		var rep report.Sweep
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s is not JSON: %v", path, err)
		}
		if len(rep.Cells) == 0 {
			t.Errorf("%s has no cells", path)
		}
	}
	// The same fleet then serves a follow-up single-spec run: worker
	// processes survive the whole batch.
	out := filepath.Join(t.TempDir(), "after.json")
	if err := run([]string{
		"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "2", "-quiet", "-report", out,
	}); err != nil {
		t.Fatalf("fleet unusable after batch: %v", err)
	}
}

// startPlaneWithWorker runs a resident control plane with one joined
// worker — the topology behind dyna serve plus dyna join — and returns
// the plane's address.
func startPlaneWithWorker(t *testing.T, token string) string {
	t.Helper()
	cp, err := shard.NewControlPlane(shard.PlaneOptions{
		Addr:      "127.0.0.1:0",
		Token:     token,
		IOTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpDone := make(chan struct{})
	go func() {
		defer close(cpDone)
		cp.Serve() //nolint:errcheck
	}()
	w, err := shard.NewWorker("", shard.WorkerOptions{
		Workers: 2, Token: token, RejoinDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wDone := make(chan struct{})
	go func() {
		defer close(wDone)
		w.JoinLoop(cp.Addr())
	}()
	t.Cleanup(func() {
		w.Close()
		<-wDone
		cp.Close()
		<-cpDone
	})
	return cp.Addr()
}

// TestSubmitAgainstControlPlane: dyna submit against a resident plane
// yields the same report envelope and rows as a local run.
func TestSubmitAgainstControlPlane(t *testing.T) {
	addr := startPlaneWithWorker(t, "s3cret")
	out := filepath.Join(t.TempDir(), "submitted.json")
	err := run([]string{
		"submit", addr, "-spec", specPath, "-seeds", "2", "-token", "s3cret",
		"-timeout", (10 * time.Second).String(), "-quiet", "-report", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Sweep
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	sw, grid, err := spec.Load(specPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	localRows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec != sw.Name || rep.SeedsPerCell != 2 {
		t.Errorf("envelope = {spec: %q, seeds: %d}, want {%q, 2}", rep.Spec, rep.SeedsPerCell, sw.Name)
	}
	if !reflect.DeepEqual(rep.Cells, localRows) {
		t.Errorf("submitted cells differ from local run:\ndist  %+v\nlocal %+v", rep.Cells, localRows)
	}
	// Wrong token: the plane refuses the submission.
	if err := run([]string{
		"submit", addr, "-spec", specPath, "-seeds", "1", "-token", "nope",
		"-timeout", (5 * time.Second).String(), "-quiet",
	}); err == nil {
		t.Error("submit with wrong token succeeded")
	}
}

// TestServeJoinDrain drives the service subcommands end to end: a
// joined worker serves a submitted sweep, status answers, and one
// SIGINT drains both the plane and the worker, which then return nil.
func TestServeJoinDrain(t *testing.T) {
	const addr = "127.0.0.1:17312"
	done := make(chan error, 2)
	go func() { done <- run([]string{"serve", addr, "-quiet"}) }()
	go func() { done <- run([]string{"join", addr, "-workers", "1"}) }()
	out := filepath.Join(t.TempDir(), "s.json")
	var err error
	for i := 0; i < 100; i++ { // until the plane listens
		if err = run([]string{"submit", addr, "-spec", specPath, "-seeds", "1", "-quiet", "-report", out}); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	// stdout stays put: serve and join write to it concurrently.
	if err := run([]string{"status", addr}); err != nil {
		t.Errorf("status: %v", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("after the drain: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("serve and join did not drain")
		}
	}
}

// TestSpecDirHTMLIndex: an HTML batch report fans out per-spec pages
// and writes a combined index at the -report path linking them.
func TestSpecDirHTMLIndex(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a-first.yaml", "b-second.yaml"} {
		data, err := os.ReadFile(specPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fleet := startWorkers(t, 2)
	outDir := t.TempDir()
	index := filepath.Join(outDir, "out.html")
	err := run([]string{
		"sweep", "-spec-dir", dir, "-fleet", fleet, "-seeds", "1",
		"-timeout", (10 * time.Second).String(), "-quiet", "-report", index,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stem := range []string{"a-first", "b-second"} {
		if _, err := os.Stat(filepath.Join(outDir, "out-"+stem+".html")); err != nil {
			t.Errorf("per-spec page missing: %v", err)
		}
	}
	data, err := os.ReadFile(index)
	if err != nil {
		t.Fatalf("index page missing: %v", err)
	}
	for _, want := range []string{
		`<a href="out-a-first.html">`,
		`<a href="out-b-second.html">`,
		"2 sweeps",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("index missing %q", want)
		}
	}
}

// TestFleetCSVReportStreamsRows: a file CSV target is written row by row
// during the sweep, yet ends up byte-identical to the buffered table of
// a local run — the diffable-artifact contract.
func TestFleetCSVReportStreamsRows(t *testing.T) {
	fleet := startWorkers(t, 2)
	out := filepath.Join(t.TempDir(), "dist.csv")
	err := run([]string{
		"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "2",
		"-timeout", (10 * time.Second).String(), "-quiet", "-report", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	_, grid, err := spec.Load(specPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	localRows, err := grid.Run(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := spec.Table("ignored", localRows).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("streamed CSV differs from buffered local table:\nstream:\n%s\nbuffer:\n%s", got, want.String())
	}
}

// TestSpecDirErrorClosesRowStreams: a -spec-dir run that fails after
// opening per-spec CSV streams — at a later spec's compile, or at a
// later stream's create — leaves none of their files open.
func TestSpecDirErrorClosesRowStreams(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to list open files")
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		second []byte // b-second.yaml
		block  bool   // a directory sits at b-second's CSV path
	}{
		{"bad-spec", []byte("ns: [5]\nno_such_key: 1\n"), false},
		{"uncreatable-csv", data, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, outDir := t.TempDir(), t.TempDir()
			for name, body := range map[string][]byte{"a-first.yaml": data, "b-second.yaml": tc.second} {
				if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.block {
				if err := os.Mkdir(filepath.Join(outDir, "out-b-second.csv"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			err := run([]string{"sweep", "-spec-dir", dir, "-fleet", "127.0.0.1:1", "-quiet",
				"-report", filepath.Join(outDir, "out.csv")})
			if err == nil {
				t.Fatal("run succeeded")
			}
			if _, statErr := os.Stat(filepath.Join(outDir, "out-a-first.csv")); statErr != nil {
				t.Fatalf("the first spec's stream was never opened: %v", statErr)
			}
			fds, _ := os.ReadDir("/proc/self/fd")
			for _, fd := range fds {
				if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, outDir) {
					t.Errorf("fd %s still open on %s after the run failed (%v)", fd.Name(), target, err)
				}
			}
		})
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitAddrs = %v, want %v", got, want)
	}
}
