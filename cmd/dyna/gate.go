package main

// dyna gate is the CI bench-regression gate: it compares two Go
// benchmark output files (the checked-in bench/baseline.txt against a
// fresh run) and fails when a benchmark regressed beyond the fixed
// thresholds below.
//
// allocs/op is the load-bearing signal — allocation counts are
// deterministic and machine-independent, so its threshold is tight
// (2%). ns/op depends on the hardware the baseline was recorded on, so
// its threshold is deliberately loose (fail only beyond 5× the
// baseline median): it catches order-of-magnitude slowdowns,
// not machine differences or microarchitecture noise. A
// regression must also be statistically separated (every new sample
// worse than every baseline sample) before the gate fires, so a single
// noisy run cannot fail the job.
//
// Usage:
//
//	go test -run '^$' -bench EngineRound -benchmem -count=5 . > new.txt
//	dyna gate -baseline bench/baseline.txt -new new.txt
//
// With -append (and a mandatory -label), a run that passes the gate is
// also recorded: the gated benchmarks' ns/op, allocs/op, and (where
// reported) ns/edge medians, with the min and max of the ns/op and
// ns/edge counts beside them, are appended as one labeled entry to a
// committed JSON history file (bench/BENCH_engine.json), giving the
// repo a per-PR performance ledger that survives baseline refreshes.
// Each append also prints one delta line per benchmark against the
// previous ledger entry, so the recorded trajectory is visible in the
// CI log; a move of an ns median is marked beyond or within the
// previous entry's spread, where that entry recorded one:
//
//	dyna gate -baseline bench/baseline.txt -new new.txt \
//	    -append bench/BENCH_engine.json -label pr7
//
// An entry is the median of one file's counts, and counts taken back to
// back carry whatever load the host drifts through, which the ledger
// then shows as a change. So a before/after pair (pr7-before, pr7) is
// recorded from interleaved single counts: run the parent's and the
// change's test binaries with -test.count=1 in turn, five times,
// concatenate each side's outputs into its own file, and append each
// file under its label.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The gate's regression thresholds, as fractions of the baseline
// median.
const (
	// nsThreshold: 4.0 fails only beyond 5× — cross-machine baselines
	// need order-of-magnitude slack.
	nsThreshold = 4.0
	// allocThreshold is tight: allocation counts are machine-independent.
	allocThreshold = 0.02
)

func runGate(args []string) error {
	out := os.Stdout
	fs := newFlagSet("gate", "")
	var (
		baselinePath = fs.String("baseline", "bench/baseline.txt", "checked-in baseline benchmark output")
		newPath      = fs.String("new", "", "freshly recorded benchmark output to gate")
		require      = fs.String("require", "", "comma-separated regexps that must each match at least one gated benchmark (guards against silently dropped or renamed benchmarks)")
		appendPath   = fs.String("append", "", "JSON history file to append the gated medians of a passing run to (requires -label)")
		label        = fs.String("label", "", "entry label for -append, e.g. a PR number or commit; duplicate labels are rejected")
	)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	if *newPath == "" {
		return fmt.Errorf("-new is required")
	}
	baseline, err := parseBenchFile(*baselinePath)
	if err != nil {
		return err
	}
	fresh, err := parseBenchFile(*newPath)
	if err != nil {
		return err
	}
	gated, err := commonNames(baseline, fresh)
	if err != nil {
		return err
	}
	if err := checkRequired(gated, *require); err != nil {
		return err
	}
	if regressions := gate(baseline, fresh, gated, out); regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond the threshold", regressions)
	}
	if *appendPath != "" {
		if *label == "" {
			return fmt.Errorf("-append requires -label")
		}
		host, err := benchHost(*newPath)
		if err != nil {
			return err
		}
		host.Label = *label
		if err := appendHistory(*appendPath, host, fresh, gated, out); err != nil {
			return err
		}
		fmt.Fprintf(out, "recorded %d benchmark(s) as %q in %s\n", len(gated), *label, *appendPath)
	}
	return nil
}

// historyEntry is one -append record: the gated benchmarks' medians for
// one labeled run, and the host that ran them — the "cpu:" line of the
// benchmark output, the GOMAXPROCS its names carry (the -N suffix), and
// the cores of the machine that records the entry (the one that ran
// the benchmarks, in CI). The committed history is an append-only JSON
// array — each PR that refreshes the baseline adds one entry, so the
// trajectory stays reconstructible even though baseline.txt itself is
// overwritten. Entries from before the host fields have none.
type historyEntry struct {
	Label      string                   `json:"label"`
	CPU        string                   `json:"cpu,omitempty"`
	Cores      int                      `json:"cores,omitempty"`
	GOMAXPROCS int                      `json:"gomaxprocs,omitempty"`
	Benchmarks map[string]historyMetric `json:"benchmarks"`
}

type historyMetric struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	NsEdge   float64 `json:"ns_edge,omitempty"`
	// The spread of the counts behind the ns medians: their min and max.
	// Entries from before the spread fields have none.
	NsOpMin   float64 `json:"ns_op_min,omitempty"`
	NsOpMax   float64 `json:"ns_op_max,omitempty"`
	NsEdgeMin float64 `json:"ns_edge_min,omitempty"`
	NsEdgeMax float64 `json:"ns_edge_max,omitempty"`
}

// appendHistory loads the history file (absent means empty), rejects a
// duplicate label (re-running CI on the same PR must not double-record),
// prints per-benchmark deltas against the previous entry, and writes
// the extended array back.
func appendHistory(path string, entry historyEntry, fresh samples, names []string, out *os.File) error {
	label := entry.Label
	var history []historyEntry
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// first entry: start a fresh history
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &history); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, e := range history {
		if e.Label == label {
			return fmt.Errorf("%s: label %q already recorded", path, label)
		}
	}
	entry.Benchmarks = map[string]historyMetric{}
	for _, name := range names {
		var m historyMetric
		if xs := fresh[name]["ns/op"]; len(xs) > 0 {
			m.NsOp, m.NsOpMin, m.NsOpMax = median(xs), slices.Min(xs), slices.Max(xs)
		}
		if xs := fresh[name]["allocs/op"]; len(xs) > 0 {
			m.AllocsOp = median(xs)
		}
		if xs := fresh[name]["ns/edge"]; len(xs) > 0 {
			m.NsEdge, m.NsEdgeMin, m.NsEdgeMax = median(xs), slices.Min(xs), slices.Max(xs)
		}
		entry.Benchmarks[name] = m
	}
	if len(history) > 0 {
		printHistoryDeltas(out, history[len(history)-1], entry)
	}
	history = append(history, entry)
	blob, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printHistoryDeltas reports, for every benchmark recorded in both the
// previous ledger entry and the new one, how each tracked metric moved,
// and whether an ns median left the previous entry's spread. The gate's
// verdict lines compare against baseline.txt, which is overwritten on
// refresh; these lines compare against the last *recorded* entry, so
// the ledger's own trajectory is visible in the log that appends to it.
func printHistoryDeltas(out *os.File, prev, next historyEntry) {
	names := make([]string, 0, len(next.Benchmarks))
	for name := range next.Benchmarks {
		if _, ok := prev.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p, n := prev.Benchmarks[name], next.Benchmarks[name]
		fmt.Fprintf(out, "since %q %-50s %s  %s  %s\n", prev.Label, name,
			deltaField("ns/op", p.NsOp, n.NsOp)+spreadVerdict(p.NsOpMin, p.NsOpMax, p.NsOp, n.NsOp),
			deltaField("allocs/op", p.AllocsOp, n.AllocsOp),
			deltaField("ns/edge", p.NsEdge, n.NsEdge)+spreadVerdict(p.NsEdgeMin, p.NsEdgeMax, p.NsEdge, n.NsEdge))
	}
}

// deltaField formats one metric's movement. ns-valued metrics are never
// legitimately 0, so a zero there means the unit was unrecorded on that
// side (ns/edge predates the pr7 entries) and renders as a placeholder.
// allocs/op, by contrast, is genuinely 0 for the steady-round
// benchmarks, so zeros are compared like any other value.
func deltaField(unit string, prev, next float64) string {
	if unit != "allocs/op" && (prev == 0 || next == 0) {
		return unit + " –"
	}
	switch {
	case prev == next:
		return fmt.Sprintf("%s %.5g (=)", unit, next)
	case prev == 0:
		return fmt.Sprintf("%s %.5g → %.5g", unit, prev, next)
	default:
		return fmt.Sprintf("%s %.5g → %.5g (%+.1f%%)", unit, prev, next, 100*(next-prev)/prev)
	}
}

// spreadVerdict says whether an ns median moved from prev to next
// beyond the previous entry's spread [lo, hi] of counts or within it:
// only a move beyond it can tell a change from the host's noise. It is
// empty when there is no move or no recorded spread.
func spreadVerdict(lo, hi, prev, next float64) string {
	switch {
	case hi == 0 || next == 0 || next == prev:
		return ""
	case next < lo || next > hi:
		return fmt.Sprintf(" beyond spread %.5g–%.5g", lo, hi)
	default:
		return fmt.Sprintf(" within spread %.5g–%.5g", lo, hi)
	}
}

// checkRequired verifies the -require coverage patterns: a gate whose
// key benchmarks vanished (renamed axis, dropped density case) must
// fail loudly as a configuration error rather than pass vacuously on
// whatever benchmarks remain.
func checkRequired(names []string, require string) error {
	for _, pat := range strings.Split(require, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return fmt.Errorf("-require %q: %w", pat, err)
		}
		found := false
		for _, name := range names {
			if re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-require %q matches no gated benchmark (renamed or missing from baseline/new output?)", pat)
		}
	}
	return nil
}

// samples maps benchmark name → metric unit → recorded values.
type samples map[string]map[string][]float64

// commonNames lists the benchmarks present in both files, sorted. A
// comparison with no common benchmarks is a configuration error, not a
// regression.
func commonNames(baseline, fresh samples) ([]string, error) {
	var names []string
	for name := range baseline {
		if _, ok := fresh[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		// A vacuous gate is a misconfigured gate: renamed benchmarks or
		// a bench run selecting none of the baseline's, never a
		// performance problem.
		return nil, fmt.Errorf("no common benchmarks between baseline and new output (renamed benchmark or over-narrow -bench run?)")
	}
	return names, nil
}

// gatedUnits are the metrics the gate enforces, with their thresholds.
var gatedUnits = []struct {
	unit      string
	threshold float64
}{{"ns/op", nsThreshold}, {"allocs/op", allocThreshold}}

// gate compares the listed benchmarks and prints one verdict line per
// gated metric, returning the number of regressions.
func gate(baseline, fresh samples, names []string, out *os.File) int {
	regressions := 0
	for _, name := range names {
		for _, g := range gatedUnits {
			base, fresh := baseline[name][g.unit], fresh[name][g.unit]
			if len(base) == 0 || len(fresh) == 0 {
				continue
			}
			verdict := compare(base, fresh, g.threshold)
			fmt.Fprintf(out, "%-60s %-10s %12.1f → %12.1f   %s\n",
				name, g.unit, median(base), median(fresh), verdict)
			if verdict == "REGRESSED" {
				regressions++
			}
		}
	}
	return regressions
}

// compare applies the gate rule to one metric: the new median must
// exceed the baseline median by more than the threshold AND the sample
// ranges must be separated (min(new) > max(base)) for a regression
// call — overlap means noise, not signal.
func compare(base, fresh []float64, threshold float64) string {
	mb, mf := median(base), median(fresh)
	if mf <= mb*(1+threshold) {
		return "ok"
	}
	if slices.Min(fresh) <= slices.Max(base) {
		return "ok (within noise)"
	}
	return "REGRESSED"
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseBenchFile reads Go benchmark output.
func parseBenchFile(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := samples{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, metrics, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		byUnit := s[name]
		if byUnit == nil {
			byUnit = map[string][]float64{}
			s[name] = byUnit
		}
		for unit, value := range metrics {
			byUnit[unit] = append(byUnit[unit], value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return s, nil
}

// benchHost reads the host a benchmark output file was recorded on: its
// "cpu:" header line and the GOMAXPROCS suffix of its first benchmark
// line. The cores are this machine's.
func benchHost(path string) (historyEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return historyEntry{}, err
	}
	defer f.Close()
	h := historyEntry{Cores: runtime.NumCPU()}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && h.CPU == "" {
			h.CPU = strings.TrimSpace(cpu)
		}
		if fields := strings.Fields(line); h.GOMAXPROCS == 0 && len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
			if m := procSuffix.FindString(fields[0]); m != "" {
				h.GOMAXPROCS, _ = strconv.Atoi(m[1:])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return historyEntry{}, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// procSuffix strips the trailing -<GOMAXPROCS> so baselines recorded
// on machines with different core counts still line up.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one "BenchmarkX-8  N  v unit  v unit …" line.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := procSuffix.ReplaceAllString(fields[0], "")
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		metrics[fields[i+1]] = value
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}
