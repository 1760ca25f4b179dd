package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json adds the
// direction and, for the end-to-end ones, the regression bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run — what a user of the
// system waits for. failed_share is not among them: it must stay 0, and
// the contract's attempted/failed pair carries it.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"runs_per_s", "1/s"},
	{"edges_per_s", "1/s"},
	{"setup_s", "s"},
}

// metric is one reported value with the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples are the per-rep (or per-set-up) values the median was taken
	// over; -compare reads its spread from them.
	Samples []float64 `json:"samples,omitempty"`
}

// host describes where a result was measured; every result file and
// trace file carries it.
type host struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is one workload's run: untraced (end-to-end metrics) or traced
// (per-layer metrics).
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Reps      int               `json:"reps"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SimDigest string            `json:"sim_digest"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	report []byte // the first rep's output; every later rep must equal it
}

func (r *result) fail(runs int, notes ...string) {
	r.Failed = min(r.Failed+runs, r.Attempted)
	r.Notes = append(r.Notes, notes...)
}

func (r *result) set(name, unit string, value float64, samples []float64) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// options are the knobs of one workload run.
type options struct {
	seed    int64
	reps    int           // > 0: exactly this many timed reps
	seconds time.Duration // else > 0: timed reps until this much has elapsed
	procs   int
	sz      sizes
	outDir  string
	log     io.Writer // progress lines; the metrics go to stdout
}

// enough reports whether a block of timed reps is complete: the count
// -reps fixes, or else at least floor reps and the time budget.
func (o options) enough(reps, want, floor int, begin time.Time, budget time.Duration) bool {
	if o.reps > 0 {
		return reps >= want
	}
	return reps >= floor && time.Since(begin) >= budget
}

// setupRepeats is how many times a run sets the workload up from
// scratch; setup_s is the median, and the last set-up is the one
// measured.
const setupRepeats = 3

// minReps is the fewest timed reps a -seconds run makes.
const minReps = 3

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// setUp prepares the workload: input rendering, loopback workers, and
// the discarded warm-up rep.
func setUp(w workload, o options) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(env{seed: o.seed, procs: o.procs, sz: o.sz})
	if err != nil {
		return nil, 0, err
	}
	if err := inst.warm(); err != nil {
		inst.close()
		return nil, 0, err
	}
	return inst, time.Since(start), nil
}

// repCost is what one rep cost the process.
type repCost struct {
	wall     time.Duration
	allocMB  float64 // bytes allocated during the rep
	gcCycles int     // collections completed during the rep
}

// timedRep runs one rep between two clock reads. The collection before
// it keeps one rep's garbage from being swept on the next rep's time.
func timedRep(inst instance, tr *tracer) (repOut, repCost, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := inst.rep(tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return out, repCost{
		wall:     wall,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcCycles: int(after.NumGC - before.NumGC),
	}, err
}

// account folds one rep into the result: its runs, its own failures,
// and — the reps being the same inputs — a report that differs from the
// first rep's fails all of the rep's runs.
func (r *result) account(out repOut, what string) {
	r.Attempted += out.runs
	r.fail(out.failed, out.notes...)
	switch {
	case r.report == nil:
		r.report = out.report
		r.SimDigest = digest(out.report)
	case !bytes.Equal(r.report, out.report):
		r.fail(out.runs, fmt.Sprintf("%s: sim_digest %s differs from the first rep's %s", what, digest(out.report), r.SimDigest))
	}
}

// runUntraced measures the end-to-end metrics of one workload: tracing
// off, closed loop, one rep after the other.
func runUntraced(w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Metrics: map[string]metric{}}
	var (
		inst   instance
		setups []time.Duration
	)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		var (
			d   time.Duration
			err error
		)
		if inst, d, err = setUp(w, o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, d)
	}
	defer inst.close()

	var (
		walls []time.Duration
		edges int64
		runs  int
	)
	for begin := time.Now(); !o.enough(len(walls), o.reps, minReps, begin, o.seconds); {
		out, cost, err := timedRep(inst, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.name, len(walls), err)
		}
		fmt.Fprintf(o.log, "  %s rep %d: %.3fs\n", w.name, len(walls), cost.wall.Seconds())
		res.account(out, fmt.Sprintf("rep %d", len(walls)))
		walls = append(walls, cost.wall)
		edges, runs = out.edges, out.runs
	}
	res.Reps = len(walls)

	vedges, notes, err := inst.verify(res.report)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	if len(notes) > 0 {
		res.fail(res.Attempted, notes...)
	}
	if edges == 0 {
		edges = vedges
	}

	ws := secondsOf(walls)
	eps, rps := make([]float64, len(ws)), make([]float64, len(ws))
	for i, s := range ws {
		eps[i] = float64(edges) / s
		rps[i] = float64(runs) / s
	}
	samples := map[string][]float64{"wall_s": ws, "runs_per_s": rps, "edges_per_s": eps, "setup_s": secondsOf(setups)}
	for _, d := range endToEnd {
		res.set(d.name, d.unit, median(samples[d.name]), samples[d.name])
	}
	return res, nil
}

// printResult writes one workload's metrics, one per line, by name and
// with unit; n, min and max come from the samples behind the value.
func printResult(w io.Writer, res *result, defs []metricDef) {
	mode := "end to end, tracing off"
	if res.Traced {
		mode = "per layer, traced"
	}
	fmt.Fprintf(w, "%s (%s; seed %d, %d reps)\n", res.Workload, mode, res.Seed, res.Reps)
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.6g %-6s", d.name, m.Value, m.Unit)
		if n := len(m.Samples); n > 1 {
			lo, hi := m.Samples[0], m.Samples[0]
			for _, s := range m.Samples {
				lo, hi = min(lo, s), max(hi, s)
			}
			line += fmt.Sprintf(" n=%d min=%.6g max=%.6g", n, lo, hi)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g %-6s (%d of %d simulated runs)\n", "failed_share", share, "share", res.Failed, res.Attempted)
	fmt.Fprintf(w, "  %-32s %s\n", "sim_digest", res.SimDigest)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}
