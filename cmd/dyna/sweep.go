package main

// dyna tables regenerates the experiment tables of the registry
// (dyna tables -list): E1–E13 and the F1 convergence figure, which
// reproduce the paper's quantitative claims (convergence rates,
// resilience and dynaDegree thresholds, worst-case round counts, the
// §VII bandwidth trade-off) and probe its open problems and ablations.
// Experiments run concurrently on a worker pool; tables always print in
// registry order.
//
// dyna sweep runs a declarative scenario matrix and reports one
// aggregate row per cell. -spec runs a committed YAML/JSON scenario
// file and -spec-dir a whole directory of them (the CI smoke job).
// Without either, the axis flags are the sweep: every combination of
// -ns, -fs, -epss, -algos and -advs, compiled into the same
// declarative sweep; -save-spec writes it out as a spec file, so every
// flag-driven sweep can become a reviewable artifact. -fleet shards the
// spec files over dyna join -listen workers instead of the local pool
// (see plane.go).
//
//	dyna tables                      # run every experiment
//	dyna tables -exp E4 -csv dir/    # one experiment, plus its CSV
//	dyna sweep -ns 5,7,9,11 -algos dac,fullinfo -advs complete,rotating:3 \
//	           -seeds 50 -workers 8 -report sweep.json
//	dyna sweep -ns 5,7 -advs er:0.3 -save-spec er.yaml
//	dyna sweep -spec examples/specs/e1-dac-convergence.yaml
//	dyna sweep -spec-dir examples/specs -seeds 1   # smoke every artifact
//	dyna validate -spec-dir examples/specs         # dry-run every artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/analysis"
	"anondyn/internal/experiments"
	"anondyn/internal/harness"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

func runTables(args []string) error {
	fs := newFlagSet("tables", "")
	var (
		exp     = fs.String("exp", "", "run only this experiment (e.g. E3)")
		list    = fs.Bool("list", false, "list available experiments and exit")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files into")
		workers = fs.Int("workers", 0, "worker-pool size for the experiments and the Monte-Carlo batches they spawn (0 = GOMAXPROCS)")
		proc    = addProcess(fs)
	)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	return proc(func(*metrics.Collector) error {
		// One flag governs every pool: the outer experiment pool below
		// and the Monte-Carlo batches the experiments spawn internally.
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
	})
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

func runValidate(args []string) error {
	fs := newFlagSet("validate", "")
	src := addSource(fs, true, false)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	files, err := src.files()
	if err != nil {
		return err
	}
	if files == nil {
		return errors.New("validate wants -spec or -spec-dir")
	}
	for _, path := range files {
		if err := spec.Validate(os.Stdout, path); err != nil {
			return err
		}
	}
	return nil
}

func runSweep(args []string) error {
	fs := newFlagSet("sweep", "")
	var (
		src  = addSource(fs, true, true)
		axes = axisFlags{
			ns:        fs.String("ns", "5,7,9,11", "axis: network sizes"),
			fs:        fs.String("fs", "0", "axis: fault bounds"),
			epss:      fs.String("epss", "1e-3", "axis: ε values"),
			algos:     fs.String("algos", "dac", "axis: algorithms (dac,dbac,…)"),
			advs:      fs.String("advs", "complete", "axis: adversaries (complete | halves | chasemin | fig1 | isolate:<v> | rotating:<d> | clustered:<T> | starve:<d> | er:<p>[,<seed>] | random:<B>,<D>[,<extra>[,<seed>]] | starveperiod:<T>; degrees accept crashdeg/byzdeg)"),
			baseSeed:  fs.Int64("seed", 0, "axis sweep: base seed"),
			maxRounds: fs.Int("rounds", 20000, "axis sweep: round budget per run"),
		}
		workers  = fs.Int("workers", 0, "local worker-pool size (0 = GOMAXPROCS)")
		target   = addReport(fs, "; with -spec-dir, one file per spec (with -fleet, plus an HTML index)")
		saveSpec = fs.String("save-spec", "", "additionally write the axis sweep as a spec file")
		fleet    = fs.String("fleet", "", "shard the spec files over these comma-separated worker addresses (dyna join -listen endpoints) instead of the local pool")
		shardsN  = fs.Int("shards", 0, "with -fleet: target shard count per sweep (0 = twice the fleet)")
		quiet    = fs.Bool("quiet", false, "with -fleet: suppress the banner, dispatch summary and status lines")
		token    = addToken(fs)
		timeout  = addTimeout(fs)
		proc     = addProcess(fs)
	)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	return proc(func(coll *metrics.Collector) error {
		files, err := src.files()
		if err != nil {
			return err
		}
		opts := anondyn.BatchOptions{Workers: *workers}
		if coll != nil {
			opts.Metrics = coll
		}
		if files == nil {
			if *fleet != "" {
				return errors.New("-fleet shards spec files; it wants -spec or -spec-dir")
			}
			sw, err := axes.sweep(src.seeds)
			if err != nil {
				return err
			}
			grid, err := sw.Grid()
			if err != nil {
				return err
			}
			if *saveSpec != "" {
				if err := report.SaveSpec(*saveSpec, "saved from dyna sweep flags", sw, *target); err != nil {
					return err
				}
			}
			return report.RunLocal(sw, grid, "sweep", opts, *target)
		}
		if *saveSpec != "" {
			return errors.New("-save-spec captures the axis flags; it does not combine with -spec/-spec-dir")
		}
		if src.dir != "" && target.Stdout() && target.Format != report.FormatJSON {
			// Back-to-back CSV tables repeat the header and name no spec;
			// HTML pages concatenate whole documents.
			return errors.New("-spec-dir prints one report per spec: use a path target (one file per spec) or -report json (each document names its spec)")
		}
		if *fleet != "" {
			// No listener: a fixed fleet that is gone is gone, so the
			// plane fails the sweep when its last worker is lost.
			popts := shard.PlaneOptions{
				Token:     *token,
				IOTimeout: *timeout,
				Metrics:   coll,
			}
			if !*quiet {
				popts.Log = stderrLog
			}
			return runSweeps(files, src.dir, popts, splitAddrs(*fleet), *shardsN, src.seeds, *target, *quiet)
		}
		for i, path := range files {
			t := *target
			if src.dir != "" {
				// A file target fans out to one derived file per spec.
				if i > 0 && !t.Stdout() {
					fmt.Println()
				}
				t = t.ForSpec(path)
			}
			sw, grid, err := spec.Load(path, src.seeds)
			if err != nil {
				return err
			}
			if err := report.RunLocal(sw, grid, path, opts, t); err != nil {
				return err
			}
		}
		return nil
	})
}

// axisFlags carries the sweep axes of an axis-flag sweep.
type axisFlags struct {
	ns, fs, epss, algos, advs *string
	baseSeed                  *int64
	maxRounds                 *int
}

// axisSeeds is the seeds_per_cell of an axis sweep that -seeds does
// not set.
const axisSeeds = 20

// sweep compiles the axis flags into the declarative sweep that runs
// and that -save-spec writes. The sweep passes through Encode and
// Parse, so the flags meet the checks a spec file meets.
func (af axisFlags) sweep(seeds int) (*spec.Sweep, error) {
	ns, err := parseInts(*af.ns)
	if err != nil {
		return nil, fmt.Errorf("-ns: %w", err)
	}
	fbounds, err := parseInts(*af.fs)
	if err != nil {
		return nil, fmt.Errorf("-fs: %w", err)
	}
	epss, err := parseFloats(*af.epss)
	if err != nil {
		return nil, fmt.Errorf("-epss: %w", err)
	}
	if seeds < 1 {
		seeds = axisSeeds
	}
	sw := &spec.Sweep{
		Ns:           ns,
		Epss:         epss,
		Adversaries:  splitAdvSpecs(*af.advs),
		SeedsPerCell: seeds,
		BaseSeed:     *af.baseSeed,
		MaxRounds:    *af.maxRounds,
	}
	for _, f := range fbounds {
		sw.Fs = append(sw.Fs, spec.Bound{Lit: f})
	}
	for _, name := range strings.Split(*af.algos, ",") {
		sw.Algorithms = append(sw.Algorithms, strings.ToLower(strings.TrimSpace(name)))
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
