package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"anondyn/internal/shard"
)

const specPath = "../../examples/specs/er-crash-sweep.yaml"

// capture runs fn with os.Stdout and os.Stderr redirected to files and
// returns what fn wrote to each, and its error.
func capture(t *testing.T, fn func() error) (stdout, stderr []byte, err error) {
	t.Helper()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	runErr := fn()
	os.Stdout, os.Stderr = savedOut, savedErr
	var out [2][]byte
	for i, f := range files {
		if out[i], err = os.ReadFile(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return out[0], out[1], runErr
}

// stdoutOf runs dyna with args, which must succeed, and returns its
// stdout.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	out, _, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out
}

// startWorkers spins n in-process sweep workers and returns their
// address list, the -fleet value.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := shard.NewWorker("127.0.0.1:0", shard.WorkerOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, w.Addr())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Serve() //nolint:errcheck
		}()
		t.Cleanup(func() { w.Close(); <-done })
	}
	return strings.Join(addrs, ",")
}

// TestDispatch: no subcommand, an unknown one and -h list the
// subcommands on stderr, and each subcommand's -h lists exactly its
// own flags.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"frob"}, {"-h"}} {
		_, stderr, err := capture(t, func() error { return run(args) })
		if err == nil {
			t.Errorf("%q succeeded", args)
		}
		for _, c := range subcommands {
			if !bytes.Contains(stderr, []byte("\n  "+c.name+" ")) {
				t.Errorf("%q: usage does not list %s:\n%s", args, c.name, stderr)
			}
		}
	}

	want := map[string]string{
		"tables":   "cpuprofile csv exectrace exp list metrics workers",
		"sweep":    "advs algos cpuprofile epss exectrace fleet fs metrics ns quiet report rounds save-spec seed seeds shards spec spec-dir timeout token workers",
		"run":      "adversary algo byz cpuprofile crash eps exectrace f inputs maxbytes megat metrics n pend randports report rounds save-spec seed seeds series shuffle trace window workers",
		"validate": "spec spec-dir",
		"serve":    "cpuprofile exectrace fleet metrics quiet timeout token",
		"join":     "cpuprofile exectrace listen metrics token workers",
		"submit":   "cpuprofile exectrace metrics quiet report seeds shards spec timeout token",
		"status":   "timeout token",
		"hub":      "addr adversary f metrics n randports rounds seed timeout",
		"node":     "addr algo eps f input timeout",
		"trace":    "events maxt n",
		"gate":     "append baseline label new require",
	}
	flagLine := regexp.MustCompile(`(?m)^  -(\S+)`)
	for _, c := range subcommands {
		_, stderr, err := capture(t, func() error { return run([]string{c.name, "-h"}) })
		if !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: err = %v", c.name, err)
		}
		var got []string
		for _, m := range flagLine.FindAllSubmatch(stderr, -1) {
			got = append(got, string(m[1]))
		}
		if strings.Join(got, " ") != want[c.name] {
			t.Errorf("%s -h lists flags %q, want %q", c.name, got, want[c.name])
		}
	}
}

// TestUsageErrors: a subcommand rejects another subcommand's flags —
// the modes are separate flag sets, so a mix fails at parse time — and
// a command without its required operand or input fails before it
// runs. The cases are grouped by surface: a worker (join), the
// resident control plane and its clients (plane), and the in-process
// commands (local).
func TestUsageErrors(t *testing.T) {
	const foreign = "flag provided but not defined"
	type usageCase struct {
		args []string
		want string
	}
	for _, group := range []struct {
		name  string
		cases []usageCase
	}{
		{"join", []usageCase{
			{[]string{"join", "127.0.0.1:1", "-spec", "x.yaml"}, foreign},
			{[]string{"join", "-listen", "127.0.0.1:0", "-spec-dir", "dir"}, foreign},
			{[]string{"join"}, "control-plane address"},
			// A bad listen address surfaces as an error rather than a hang.
			{[]string{"join", "-listen", "256.256.256.256:99999"}, "listen"},
		}},
		{"plane", []usageCase{
			{[]string{"serve", ":0", "-spec", specPath}, foreign},
			{[]string{"submit", "127.0.0.1:1", "-spec", specPath, "-fleet", "h:1"}, foreign},
			{[]string{"submit", "127.0.0.1:1", "-spec-dir", "dir"}, foreign},
			{[]string{"status", "127.0.0.1:1", "-spec", specPath}, foreign},
			{[]string{"status"}, "want 1 to 1 arguments"},
			{[]string{"serve"}, "want 1 to 1 arguments"},
			{[]string{"submit", "127.0.0.1:1"}, "-spec"},
		}},
		{"local", []usageCase{
			{[]string{"sweep", "-spec", "x.yaml", "-series"}, foreign},
			{[]string{"sweep", "-spec", "x.yaml", "-trace", "run.jsonl"}, foreign},
			{[]string{"sweep", "-spec", "does-not-exist.yaml"}, "does-not-exist.yaml"},
			{[]string{"run", "-spec", "x.yaml"}, foreign},
			{[]string{"run", "-validate"}, foreign},
			{[]string{"run", "-adversary", "complete", "-randports", "-save-spec", "x.yaml"}, "-randports"},
			{[]string{"tables", "-sweep"}, foreign},
			{[]string{"validate", "-spec", specPath, "-seeds", "2"}, foreign},
			{[]string{"sweep", "stray"}, "want 0 to 0 arguments"},
			{[]string{"validate"}, "-spec"},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, tc := range group.cases {
				_, _, err := capture(t, func() error { return run(tc.args) })
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
				}
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -exectrace write a complete
// recording whether the command succeeds or fails early, and an
// uncreatable file fails the command before it runs — for the local
// commands (sweep, tables), a sweep over a fleet, and a scenario run.
func TestProfileFlags(t *testing.T) {
	fleet := startWorkers(t, 2)
	type recorded struct {
		args  []string
		fails bool
	}
	surfaces := []struct {
		name      string
		recorded  []recorded
		reporting []string
	}{
		{"local", []recorded{
			{[]string{"sweep", "-ns", "5", "-seeds", "3"}, false},
			{[]string{"tables", "-exp", "E99"}, true},
		}, []string{"sweep", "-ns", "5", "-seeds", "3"}},
		{"fleet", []recorded{
			{[]string{"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "2", "-quiet"}, false},
			{[]string{"sweep", "-spec", "no-such-file.yaml", "-fleet", fleet}, true},
		}, []string{"sweep", "-spec", specPath, "-fleet", fleet, "-seeds", "2", "-quiet"}},
		{"run", []recorded{
			{[]string{"run", "-n", "9", "-adversary", "rotating:3"}, false},
			{[]string{"run", "-algo", "nope"}, true},
		}, []string{"run", "-seeds", "3"}},
	}
	for _, rec := range []struct {
		flag  string
		check func(*testing.T, string)
	}{{"-cpuprofile", assertPprof}, {"-exectrace", assertExecTrace}} {
		t.Run(rec.flag[1:], func(t *testing.T) {
			for _, s := range surfaces {
				t.Run(s.name, func(t *testing.T) {
					dir := t.TempDir()
					for i, c := range s.recorded {
						path := filepath.Join(dir, fmt.Sprint(i))
						args := append(c.args[:len(c.args):len(c.args)], rec.flag, path)
						if _, _, err := capture(t, func() error { return run(args) }); (err != nil) != c.fails {
							t.Fatalf("%q: err = %v", args, err)
						}
						rec.check(t, path)
					}
					out := filepath.Join(dir, "out.json")
					args := append(s.reporting[:len(s.reporting):len(s.reporting)],
						"-report", out, rec.flag, filepath.Join(dir, "missing", "x"))
					if err := run(args); err == nil || !strings.Contains(err.Error(), rec.flag) {
						t.Fatalf("%q: err = %v", args, err)
					}
					if _, statErr := os.Stat(out); statErr == nil {
						t.Errorf("%q ran although the recording file could not be created", args)
					}
				})
			}
		})
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
