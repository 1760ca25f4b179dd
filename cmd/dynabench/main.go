// Command dynabench regenerates the experiment tables E1–E8 recorded in
// EXPERIMENTS.md: the reproduction of every quantitative claim of the
// paper (convergence rates, resilience and dynaDegree thresholds,
// worst-case round counts, the §VII bandwidth trade-off). Experiments
// run concurrently on a worker pool; tables always print in registry
// order. -sweep switches to the declarative scenario-matrix engine:
// every combination of -ns, -fs, -epss, -algos and -advs is measured
// over -seeds Monte-Carlo runs and reported as one aggregate row per
// cell, optionally as JSON.
//
// Declarative sweeps: -spec runs a committed YAML/JSON scenario file,
// -spec-dir runs a whole directory of them (the CI smoke job). -sweep
// compiles its axis flags into the same declarative sweep and runs
// that; -save-spec writes it out as a spec file, so every flag-driven
// sweep can become a reviewable artifact.
//
// -serve turns the process into a distributed sweep worker: it listens
// for a dynagrid coordinator and executes the shards it is sent —
// (spec, run-range) slices of a scenario matrix — on the local
// harness pool, streaming per-run records back in run order. -join
// instead dials into a resident dynagrid -serve-coordinator control
// plane (reconnecting until shutdown); SIGINT/SIGTERM drains
// gracefully — finish the shard in flight, announce the leave, exit.
// -token carries the shared secret of the shard handshake.
//
// -cpuprofile writes a CPU profile of the whole run, in any mode
// (workers included), to a file (read it with go tool pprof),
// -exectrace a runtime execution trace (go tool trace); an uncreatable
// path fails before anything runs.
//
// Usage:
//
//	dynabench                      # run every experiment
//	dynabench -exp E4              # run one experiment
//	dynabench -list                # list experiments
//	dynabench -csv dir/            # additionally write one CSV per table
//	dynabench -sweep -ns 5,7,9,11 -algos dac,fullinfo -advs complete,rotating:3 \
//	          -seeds 50 -workers 8 -report sweep.json
//	dynabench -sweep -ns 5,7 -advs er:0.3 -save-spec er.yaml
//	dynabench -spec examples/specs/e1-dac-convergence.yaml
//	dynabench -spec-dir examples/specs -seeds 1   # smoke every artifact
//	dynabench -serve 127.0.0.1:7101 -workers 4    # distributed sweep worker
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"anondyn"
	"anondyn/internal/analysis"
	"anondyn/internal/experiments"
	"anondyn/internal/harness"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynabench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("dynabench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "", "run only this experiment (e.g. E3)")
		list       = fs.Bool("list", false, "list available experiments and exit")
		csvDir     = fs.String("csv", "", "directory to write per-experiment CSV files into")
		workers    = fs.Int("workers", 0, "worker-pool size for experiments (outer and inner pools) and sweeps (0 = GOMAXPROCS)")
		sweep      = fs.Bool("sweep", false, "run a scenario-matrix sweep instead of the experiment registry")
		nsSpec     = fs.String("ns", "5,7,9,11", "sweep axis: network sizes")
		fsSpec     = fs.String("fs", "0", "sweep axis: fault bounds")
		epsSpec    = fs.String("epss", "1e-3", "sweep axis: ε values")
		algoSpec   = fs.String("algos", "dac", "sweep axis: algorithms (dac,dbac,…)")
		advSpec    = fs.String("advs", "complete", "sweep axis: adversaries (complete | halves | chasemin | fig1 | isolate:<v> | rotating:<d> | clustered:<T> | starve:<d> | er:<p>[,<seed>] | random:<B>,<D>[,<extra>[,<seed>]] | starveperiod:<T>; degrees accept crashdeg/byzdeg)")
		seedsN     = fs.Int("seeds", 20, "sweep: Monte-Carlo runs per cell (with -spec/-spec-dir: override the file's seeds_per_cell)")
		baseSeed   = fs.Int64("seed", 0, "sweep: base seed")
		maxRounds  = fs.Int("rounds", 20000, "sweep: round budget per run")
		reportOut  = fs.String("report", "", `sweep: "csv"/"json"/"html" for stdout, or a path (.csv/.html → that format, else JSON); with -spec-dir, one file per spec`)
		metricsOut = fs.String("metrics", "", "stream live metrics snapshots as NDJSON to this file or host:port address")
		specFile   = fs.String("spec", "", "run the sweep defined in this YAML/JSON scenario file")
		specDir    = fs.String("spec-dir", "", "run every scenario file (*.yaml, *.yml, *.json) in this directory")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
		execTrace  = fs.String("exectrace", "", "write a runtime execution trace of the whole run to this file (read it with go tool trace)")
		validate   = fs.Bool("validate", false, "with -spec/-spec-dir: parse, validate and compile the spec(s), then exit without running")
		saveSpec   = fs.String("save-spec", "", "with -sweep: additionally write the sweep as a spec file")
		serveAddr  = fs.String("serve", "", "run as a distributed sweep worker on this address (shards arrive from dynagrid; -workers sizes the per-shard pool)")
		joinAddr   = fs.String("join", "", "worker mode: dial into a dynagrid -serve-coordinator control plane at this address (reconnects until shutdown; combines with or replaces -serve)")
		token      = fs.String("token", "", "worker mode: shared secret for the shard handshake (must match the coordinator's -token; empty disables auth)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	stopProfile, err := metrics.StartCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopProfile(); err == nil {
			err = cerr
		}
	}()
	stopTrace, err := metrics.StartExecTrace(*execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopTrace(); err == nil {
			err = cerr
		}
	}()

	coll, closeMetrics, err := metrics.Start(*metricsOut, 0)
	if err != nil {
		return err
	}
	defer closeMetrics() //nolint:errcheck // final snapshot write; fate shared with stdout

	if *serveAddr != "" || *joinAddr != "" {
		if *sweep || *specFile != "" || *specDir != "" {
			return fmt.Errorf("-serve/-join is a worker mode; the sweep arrives from the dynagrid coordinator")
		}
		wopts := shard.WorkerOptions{
			Workers: *workers,
			Token:   *token,
			Log: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", a...)
			},
		}
		if coll != nil {
			wopts.Metrics = coll
		}
		w, err := shard.NewWorker(*serveAddr, wopts)
		if err != nil {
			return err
		}
		if *joinAddr == "" {
			fmt.Printf("sweep worker listening on %s\n", w.Addr())
			return w.Serve()
		}
		return serveJoined(w, *serveAddr != "", *joinAddr)
	}

	if *specFile != "" || *specDir != "" {
		if *sweep {
			return fmt.Errorf("-sweep and -spec/-spec-dir are mutually exclusive (the file already is the sweep)")
		}
		if *saveSpec != "" {
			return fmt.Errorf("-save-spec captures -sweep flags; it does not combine with -spec/-spec-dir")
		}
		seedsOverride := 0
		if explicit["seeds"] {
			seedsOverride = *seedsN
		}
		if *specDir != "" && *specFile != "" {
			return fmt.Errorf("-spec and -spec-dir are mutually exclusive")
		}
		if *validate {
			if *specDir != "" {
				return validateSpecDir(*specDir)
			}
			return validateSpecFile(*specFile)
		}
		target := report.ParseTarget(*reportOut)
		if *specDir != "" {
			return runSpecDir(*specDir, seedsOverride, *workers, target, coll)
		}
		return runSpecFile(*specFile, seedsOverride, *workers, target, coll)
	}
	if *validate {
		return fmt.Errorf("-validate wants -spec or -spec-dir (it dry-runs spec files)")
	}

	if *sweep {
		return runSweep(sweepFlags{
			ns: *nsSpec, fs: *fsSpec, epss: *epsSpec, algos: *algoSpec, advs: *advSpec,
			seeds: *seedsN, baseSeed: *baseSeed, maxRounds: *maxRounds,
			workers: *workers, reportOut: *reportOut, saveSpec: *saveSpec,
		}, coll)
	}
	if *saveSpec != "" {
		return fmt.Errorf("-save-spec wants -sweep (it captures the sweep flags)")
	}

	// One flag governs every pool: the outer experiment pool below and
	// the Monte-Carlo batches the experiments spawn internally.
	experiments.Workers = *workers

	registry := experiments.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return nil
	}

	selected := registry
	if *exp != "" {
		selected = nil
		for _, e := range registry {
			if strings.EqualFold(e.ID, *exp) {
				selected = []experiments.Experiment{e}
				break
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
	}

	// Regenerate the selected tables concurrently; the ordered sink
	// prints them in registry order as they become available.
	return harness.Run(len(selected),
		func(i int) (*analysis.Table, error) {
			return selected[i].Run(), nil
		},
		func(i int, tb *analysis.Table) error {
			if i > 0 {
				fmt.Println()
			}
			if err := tb.Fprint(os.Stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				return writeCSV(*csvDir, selected[i].ID, tb)
			}
			return nil
		},
		harness.Options{Workers: *workers})
}

// serveJoined runs the worker against a resident control plane — and,
// when listen is set, the legacy listener alongside — until SIGINT or
// SIGTERM, which drains gracefully: the shard in flight finishes, the
// leave frame goes out (so the control plane requeues nothing), and
// only then does the process exit.
func serveJoined(w *shard.Worker, listen bool, cpAddr string) error {
	errc := make(chan error, 1)
	if listen {
		fmt.Printf("sweep worker listening on %s\n", w.Addr())
		go func() { errc <- w.Serve() }()
	}
	fmt.Printf("joining control plane at %s\n", cpAddr)
	joined := make(chan struct{})
	go func() {
		w.JoinLoop(cpAddr)
		close(joined)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		w.Close()
		<-joined
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "dynabench: draining (current shard finishes, then leave)")
		w.Drain()
		<-joined
		w.Close()
		return nil
	}
}

func writeCSV(dir, id string, tb *analysis.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, strings.ToLower(id)+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", path)
	return nil
}

// sweepFlags carries the parsed -sweep axes.
type sweepFlags struct {
	ns, fs, epss, algos, advs string
	seeds                     int
	baseSeed                  int64
	maxRounds                 int
	workers                   int
	reportOut                 string
	saveSpec                  string
}

// runSweep compiles the axis flags into a sweep, optionally saves it
// as a spec file, runs it on the worker pool, prints one aggregate row
// per cell, and optionally writes the report.
func runSweep(sf sweepFlags, coll *metrics.Collector) error {
	sw, err := sf.sweep()
	if err != nil {
		return err
	}
	grid, err := sw.Grid()
	if err != nil {
		return err
	}
	target := report.ParseTarget(sf.reportOut)
	if sf.saveSpec != "" {
		if err := os.WriteFile(sf.saveSpec, sw.Encode(), 0o644); err != nil {
			return err
		}
		note := os.Stdout
		if target.Stdout() {
			note = os.Stderr // stdout carries the report document
		}
		fmt.Fprintf(note, "(spec written to %s)\n", sf.saveSpec)
	}
	title := fmt.Sprintf("sweep: %d cells × %d seeds", len(grid.Cells()), max(sf.seeds, 1))
	return printSweep(grid, title, nil, sf.workers, target, coll)
}

// sweep compiles the axis flags into the declarative sweep that runs
// and that -save-spec writes. The sweep passes through Encode and
// Parse, so the flags meet the checks a spec file meets.
func (sf sweepFlags) sweep() (*spec.Sweep, error) {
	ns, err := parseInts(sf.ns)
	if err != nil {
		return nil, fmt.Errorf("-ns: %w", err)
	}
	fbounds, err := parseInts(sf.fs)
	if err != nil {
		return nil, fmt.Errorf("-fs: %w", err)
	}
	epss, err := parseFloats(sf.epss)
	if err != nil {
		return nil, fmt.Errorf("-epss: %w", err)
	}
	sw := &spec.Sweep{
		Ns:           ns,
		Epss:         epss,
		Adversaries:  splitAdvSpecs(sf.advs),
		SeedsPerCell: sf.seeds,
		BaseSeed:     sf.baseSeed,
		MaxRounds:    sf.maxRounds,
	}
	for _, f := range fbounds {
		sw.Fs = append(sw.Fs, spec.Bound{Lit: f})
	}
	for _, name := range strings.Split(sf.algos, ",") {
		sw.Algorithms = append(sw.Algorithms, strings.ToLower(strings.TrimSpace(name)))
	}
	if sf.saveSpec != "" {
		sw.Name = strings.TrimSuffix(filepath.Base(sf.saveSpec), filepath.Ext(sf.saveSpec))
		sw.Description = "saved from dynabench -sweep flags"
	}
	return spec.Parse(sw.Encode())
}

// splitAdvSpecs splits the -advs list, letting the commas inside
// multi-argument adversary specs (random:<B>,<D>,… / er:<p>,<seed>)
// span list commas: a token that is not a spec of its own — a number,
// or a symbolic degree like crashdeg — joins the previous spec when
// the merge parses. Tokens that resolve neither way stay standalone so
// the registry reports them by name.
func splitAdvSpecs(list string) []string {
	var specs []string
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if len(specs) > 0 {
			if _, err := anondyn.ParseAdversaryFactory(tok); err != nil {
				merged := specs[len(specs)-1] + "," + tok
				if _, err := anondyn.ParseAdversaryFactory(merged); err == nil {
					specs[len(specs)-1] = merged
					continue
				}
			}
		}
		specs = append(specs, tok)
	}
	return specs
}

// printSweep runs one grid, prints the aggregate table (unless a
// stdout report mode replaces it), and writes the requested report.
// The HTML format additionally runs one extra seed per cell to chart
// its convergence curve. A sweep with a stress section (sw non-nil)
// additionally evaluates and prints its storm verdicts.
func printSweep(grid anondyn.Grid, title string, sw *spec.Sweep, workers int, target report.Target, coll *metrics.Collector) error {
	opts := anondyn.BatchOptions{Workers: workers}
	if coll != nil {
		opts.Metrics = coll
	}
	rows, err := grid.Run(opts)
	if err != nil {
		return err
	}
	doc := &report.Sweep{
		SeedsPerCell: max(grid.SeedsPerCell, 1),
		BaseSeed:     grid.BaseSeed,
		Workers:      workers,
		Cells:        rows,
		Title:        title,
	}
	if sw != nil {
		doc.Spec = sw.Name
		doc.Verdicts = sw.Verdicts(rows)
		doc.Storm = sw.StormTimeline()
	}
	if target.Format == report.FormatHTML {
		if doc.Series, err = grid.SeriesPerCell(); err != nil {
			return err
		}
	}
	if target.Stdout() {
		// Machine output replaces the human table.
		return target.Write(doc)
	}
	if err := spec.Table(title, rows).Fprint(os.Stdout); err != nil {
		return err
	}
	if err := report.FprintVerdicts(os.Stdout, doc.Verdicts); err != nil {
		return err
	}
	if err := target.Write(doc); err != nil {
		return err
	}
	if target.Enabled() {
		fmt.Printf("(report written to %s)\n", target.Path)
	}
	return nil
}

// validateSpecFile dry-runs one spec file: parse, validate, compile —
// every check a real run performs before its first scenario — then
// report and exit. Unknown keys, bad values and uncompilable grids all
// surface with their key-citing errors and a non-zero exit.
func validateSpecFile(path string) error {
	sw, grid, err := spec.Load(path, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%s: ok (%s)\n", path, sw.RunTitle(path, len(grid.Cells())))
	return nil
}

// validateSpecDir dry-runs every scenario file in one directory (the
// same file set runSpecDir would execute).
func validateSpecDir(dir string) error {
	files, err := specDirFiles(dir)
	if err != nil {
		return err
	}
	for _, path := range files {
		if err := validateSpecFile(path); err != nil {
			return err
		}
	}
	return nil
}

// runSpecFile runs one declarative sweep file. seedsOverride > 0
// replaces the file's seeds_per_cell (the CI one-seed smoke). The
// description banner is human output: a stdout report target replaces
// it along with the table, so stdout stays a parseable document.
func runSpecFile(path string, seedsOverride, workers int, target report.Target, coll *metrics.Collector) error {
	sw, grid, err := spec.Load(path, seedsOverride)
	if err != nil {
		return err
	}
	if !target.Stdout() && sw.Description != "" {
		fmt.Printf("# %s\n", sw.Description)
	}
	return printSweep(grid, sw.RunTitle(path, len(grid.Cells())), sw, workers, target, coll)
}

// runSpecDir runs every scenario file in a directory, sorted by name.
// A file report target fans out to one derived file per spec.
func runSpecDir(dir string, seedsOverride, workers int, target report.Target, coll *metrics.Collector) error {
	files, err := specDirFiles(dir)
	if err != nil {
		return err
	}
	for i, path := range files {
		if i > 0 && !target.Stdout() {
			fmt.Println()
		}
		if err := runSpecFile(path, seedsOverride, workers, target.ForSpec(path), coll); err != nil {
			return err
		}
	}
	return nil
}

// specDirFiles lists a directory's scenario files, sorted by name.
func specDirFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".yaml", ".yml", ".json":
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no scenario files (*.yaml, *.yml, *.json)", dir)
	}
	sort.Strings(files)
	return files, nil
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(spec string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
