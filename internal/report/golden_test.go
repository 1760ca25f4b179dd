package report

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/spec"
)

// goldenSeeds is the Monte-Carlo width every committed spec runs at in
// TestResultsGolden: enough for a renewed adversary (the second run of
// a cell on one worker) to show, small enough that all of them run in
// about a second.
const goldenSeeds = 2

// goldenSpecs returns every committed spec keyed by its golden name:
// the embedded examples (examples/…, examples/stress/…) and the
// benchmark's frozen specs (benchmark/…), which are only read here.
func goldenSpecs(t *testing.T) map[string][]byte {
	out := make(map[string][]byte)
	for _, name := range specs.Names() {
		data, err := specs.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		out["examples/"+name] = data
	}
	paths, err := filepath.Glob("../../benchmark/specs/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("benchmark specs: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out["benchmark/"+filepath.Base(p)] = data
	}
	return out
}

// resultDigest runs one spec at goldenSeeds seeds per cell on two
// workers and returns the SHA-256 of its JSON report document.
func resultDigest(data []byte) (string, error) {
	sw, err := spec.Parse(data)
	if err != nil {
		return "", err
	}
	sw.SeedsPerCell = goldenSeeds
	grid, err := sw.Grid()
	if err != nil {
		return "", err
	}
	const workers = 2
	rows, err := grid.Run(anondyn.BatchOptions{Workers: workers})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := NewSweep(sw, "", workers, rows).WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// TestResultsGolden pins the result bytes of every committed spec: the
// JSON report of each, at two seeds per cell, hashes to its line in
// testdata/results.sha256. Encode's golden files pin what a spec says;
// this pins what it computes, so a change to a seeded stream, to the
// renewal of a sweep's adversary or to any fold moves a line here even
// when every behavioural test still passes. A genuine change of a
// stream regenerates the file from the failure message.
func TestResultsGolden(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("result bytes are pinned on 64-bit hosts only: E8's bytes_delivered differs on 32-bit (ROADMAP item 1(a))")
	}
	want := readGolden(t, filepath.Join("testdata", "results.sha256"))
	got := make(map[string]string)
	for name, data := range goldenSpecs(t) {
		sum, err := resultDigest(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = sum
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var file strings.Builder
	failed := false
	for _, name := range names {
		fmt.Fprintf(&file, "%s  %s\n", got[name], name)
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden line", name)
			failed = true
		} else if w != got[name] {
			t.Errorf("%s: result bytes moved (sha256 %s, golden %s)", name, got[name], w)
			failed = true
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden line for a spec that is no longer committed", name)
			failed = true
		}
	}
	if failed {
		t.Logf("this tree's testdata/results.sha256:\n%s", file.String())
	}
}

// readGolden parses "<sha256>  <name>" lines.
func readGolden(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
