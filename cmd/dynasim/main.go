// Command dynasim runs one consensus scenario on the simulated
// anonymous dynamic network and reports outputs, rounds, the property
// checks of Definition 3, and the dynaDegree the adversary actually
// provided. With -seeds > 1 it runs a seeded Monte-Carlo batch of the
// same scenario on a worker pool and reports streaming aggregates
// instead; -report writes the batch report ("csv"/"json"/"html" stream
// to stdout, a path picks the format from its extension — .csv, .html
// for a self-contained HTML page, anything else JSON). -metrics streams
// live telemetry snapshots as NDJSON to a file or TCP address.
//
// The scenario flags compile to a declarative sweep (a 1-cell matrix)
// in the format dynabench sweeps and the committed examples/specs
// artifacts use, and dynasim runs exactly that sweep: -save-spec writes
// it to a file, and -spec runs such a file through the same local path
// as dynabench -spec (description banner, aggregate table, verdicts,
// and the sweep envelope for -report).
//
// Examples:
//
//	dynasim -algo dac  -n 7  -f 2 -adversary rotating:3 -crash 1@3,4@6
//	dynasim -algo dbac -n 11 -f 2 -adversary complete -byz 4:equivocate,9:extremist:1
//	dynasim -algo dac  -n 3  -adversary fig1 -eps 0.01 -trace run.jsonl
//	dynasim -algo dac  -n 6  -adversary halves -rounds 100   # stalls: below threshold
//	dynasim -algo dac  -n 9  -adversary er:0.3 -inputs random -seeds 200 -workers 8 -report batch.json
//	dynasim -algo dac  -n 9  -adversary er:0.3 -save-spec er.yaml   # flags → artifact
//	dynasim -spec er.yaml -seeds 50                                 # artifact → sweep
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/spec"
	"anondyn/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynasim:", err)
		os.Exit(1)
	}
}

// flags holds dynasim's command line.
type flags struct {
	algo, adversary, crash, byz, inputs   string
	n, f, window, megaT, pEnd, rounds     int
	eps                                   float64
	seed                                  int64
	randPorts, shuffle, series, validate  bool
	maxBytes, seeds, workers              int
	trace, report, metrics                string
	spec, saveSpec, cpuProfile, execTrace string
	seedsSet                              bool // -seeds given explicitly
}

// parseFlags reads the command line into flags.
func parseFlags(args []string) (*flags, error) {
	fl := &flags{}
	fs := flag.NewFlagSet("dynasim", flag.ContinueOnError)
	fs.StringVar(&fl.algo, "algo", "dac", "algorithm: dac, dbac, dbac-pb, megaround, fullinfo, reliter, bacrel, floodmin")
	fs.IntVar(&fl.n, "n", 7, "network size")
	fs.IntVar(&fl.f, "f", 0, "fault bound")
	fs.Float64Var(&fl.eps, "eps", 1e-3, "ε of ε-agreement")
	fs.StringVar(&fl.adversary, "adversary", "complete", "complete | fig1 | halves | chasemin | isolate:<node> | er:<p> | rotating:<d> | clustered:<T> | random:<B>,<D> | starve:<d>")
	fs.StringVar(&fl.crash, "crash", "", "crash schedule: node@round[,node@round...]")
	fs.StringVar(&fl.byz, "byz", "", "byzantine nodes: node:strategy[:<arg>][,...]; strategies: silent, extremist:<v>, equivocate, noise, laggard:<v>, mimic:<t>")
	fs.IntVar(&fl.window, "window", 0, "piggyback window K (dbac-pb)")
	fs.IntVar(&fl.megaT, "megat", 2, "block length T (megaround)")
	fs.IntVar(&fl.pEnd, "pend", 0, "explicit phase budget (overrides ε-derived p_end)")
	fs.IntVar(&fl.rounds, "rounds", 0, "round budget (0 = engine default)")
	fs.Int64Var(&fl.seed, "seed", 1, "seed for random ports / adversaries")
	fs.BoolVar(&fl.randPorts, "randports", false, "use random per-node port numberings")
	fs.StringVar(&fl.inputs, "inputs", "spread", "spread | split:<k> | random")
	fs.StringVar(&fl.trace, "trace", "", "write the execution event log (JSONL) to this file")
	fs.BoolVar(&fl.series, "series", false, "print the per-round convergence curve (log-scale sparkline)")
	fs.IntVar(&fl.maxBytes, "maxbytes", 0, "per-link bandwidth budget in bytes (0 = unlimited)")
	fs.BoolVar(&fl.shuffle, "shuffle", false, "randomize intra-round delivery order (seeded)")
	fs.IntVar(&fl.seeds, "seeds", 1, "number of seeded runs; > 1 switches to Monte-Carlo batch mode (with -spec: override the file's seeds_per_cell)")
	fs.IntVar(&fl.workers, "workers", 0, "batch worker-pool size (0 = GOMAXPROCS)")
	fs.StringVar(&fl.report, "report", "", `batch report (implies batch mode; with -spec, the sweep report): "csv"/"json"/"html" for stdout, or a path (.csv/.html → that format, else JSON)`)
	fs.StringVar(&fl.metrics, "metrics", "", "stream live metrics snapshots as NDJSON to this file or host:port address")
	fs.StringVar(&fl.spec, "spec", "", "run the sweep defined in this YAML/JSON scenario file instead of the flag scenario")
	fs.StringVar(&fl.saveSpec, "save-spec", "", "write the flag scenario as a declarative spec file before running")
	fs.StringVar(&fl.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
	fs.StringVar(&fl.execTrace, "exectrace", "", "write a runtime execution trace of the whole run to this file (read it with go tool trace)")
	fs.BoolVar(&fl.validate, "validate", false, "with -spec: parse, validate and compile the spec, then exit without running")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seeds" {
			fl.seedsSet = true
		}
	})
	return fl, nil
}

// batch reports whether the flags ask for a Monte-Carlo batch rather
// than one observed run.
func (fl *flags) batch() bool { return fl.seeds > 1 || fl.report != "" }

func run(args []string) (err error) {
	fl, err := parseFlags(args)
	if err != nil {
		return err
	}

	coll, stop, err := metrics.StartProcess(fl.cpuProfile, fl.execTrace, fl.metrics)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	opts := anondyn.BatchOptions{Workers: fl.workers}
	if coll != nil {
		opts.Metrics = coll
	}
	target := report.ParseTarget(fl.report)

	if fl.spec != "" {
		if fl.trace != "" || fl.series {
			return fmt.Errorf("-spec runs a sweep; -trace and -series do not apply")
		}
		if fl.saveSpec != "" {
			return fmt.Errorf("-save-spec captures the scenario flags; it does not combine with -spec")
		}
		seedsOverride := 0
		if fl.seedsSet {
			seedsOverride = fl.seeds
		}
		if fl.validate {
			return spec.Validate(os.Stdout, fl.spec)
		}
		sw, grid, err := spec.Load(fl.spec, seedsOverride)
		if err != nil {
			return err
		}
		return report.RunLocal(sw, grid, fl.spec, opts, target)
	}
	if fl.validate {
		return fmt.Errorf("-validate wants -spec (it dry-runs spec files)")
	}
	if fl.seeds < 1 {
		return fmt.Errorf("-seeds wants a positive count (got %d)", fl.seeds)
	}
	if fl.batch() && (fl.trace != "" || fl.series) {
		return fmt.Errorf("-trace and -series are per-run views; they do not combine with batch mode (-seeds/-report)")
	}
	if fl.saveSpec != "" && (fl.randPorts || fl.shuffle) {
		return fmt.Errorf("-save-spec cannot capture -randports or -shuffle (not spec-expressible)")
	}

	sw, grid, err := fl.compile()
	if err != nil {
		return err
	}
	if fl.saveSpec != "" {
		if err := report.SaveSpec(fl.saveSpec, "saved from dynasim flags", sw, target); err != nil {
			return err
		}
	}
	if fl.batch() {
		return runBatch(fl, grid, target, opts)
	}
	opts.Workers = 1
	return runSingle(fl, grid, opts)
}

// compile turns the flags into the sweep that runs and its grid. The
// per-run knobs a spec does not express (-randports, -shuffle) ride on
// the grid's compiled per-run hook.
func (fl *flags) compile() (*spec.Sweep, anondyn.Grid, error) {
	sw, err := fl.sweep()
	if err != nil {
		return nil, anondyn.Grid{}, err
	}
	grid, err := sw.Grid()
	if err != nil {
		return nil, anondyn.Grid{}, err
	}
	wrapMutate(&grid, func(s *anondyn.Scenario) {
		s.RandomPorts = fl.randPorts
		s.ShuffleDelivery = fl.shuffle
	})
	return sw, grid, nil
}

// wrapMutate appends extra to the grid's compiled per-run hook.
func wrapMutate(g *anondyn.Grid, extra func(s *anondyn.Scenario)) {
	base := g.Mutate
	g.Mutate = func(s *anondyn.Scenario, c anondyn.Cell, seed int64) {
		if base != nil {
			base(s, c, seed)
		}
		extra(s)
	}
}

// runSingle executes the grid's one run with the phase tracker, the
// dynaDegree trace and the optional series and event recorder attached,
// and prints what they observed.
func runSingle(fl *flags, grid anondyn.Grid, opts anondyn.BatchOptions) error {
	tracker := anondyn.NewPhaseTracker()
	var series *anondyn.RangeSeries
	if fl.series {
		series = anondyn.NewRangeSeries()
	}
	var rec *anondyn.Recorder
	if fl.trace != "" {
		rec = anondyn.NewRecorder()
	}
	var adversary string
	wrapMutate(&grid, func(s *anondyn.Scenario) {
		s.Tracker, s.Series, s.Recorder, s.KeepTrace = tracker, series, rec, true
		adversary = s.Adversary.Name()
	})
	var res *anondyn.Result
	err := grid.RunEach(opts, func(_ anondyn.Cell, _, _ int, _ int64, r *anondyn.Result) error {
		res = r
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("%s  n=%d f=%d ε=%g  adversary=%s\n", grid.Cells()[0].Algorithm, fl.n, fl.f, fl.eps, adversary)
	fmt.Printf("rounds: %d   all fault-free decided: %v\n", res.Rounds, res.Decided)
	fmt.Printf("messages: %d delivered, %d suppressed by the adversary\n",
		res.MessagesDelivered, res.MessagesLost)
	if res.MessagesOversized > 0 {
		fmt.Printf("bandwidth: %d messages exceeded the %d-byte link budget\n",
			res.MessagesOversized, fl.maxBytes)
	}

	nodes := make([]int, 0, len(res.Outputs))
	for node := range res.Outputs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		fmt.Printf("  node %2d → %.8f (round %d)\n", node, res.Outputs[node], res.DecideRound[node])
	}
	if res.Decided {
		fmt.Printf("output range: %.3g   ε-agreement: %v   validity: %v\n",
			res.OutputRange(), res.EpsAgreement(fl.eps), res.Valid())
	}

	if len(res.Trace) > 0 {
		for _, T := range []int{1, 2, 4} {
			if T <= len(res.Trace) {
				fmt.Printf("trace satisfies (T=%d, D=%d)-dynaDegree\n",
					T, anondyn.MaxDynaDegree(res.Trace, res.FaultFree, T))
			}
		}
	}
	if p := tracker.MaxPhase(); p > 0 {
		fmt.Println("phase  |V(p)|  range(V(p))")
		for q := 0; q <= p && q <= 12; q++ {
			fmt.Printf("  %3d   %3d    %.8f\n", q, tracker.Count(q), tracker.Range(q))
		}
	}

	if series != nil && series.Len() > 0 {
		fmt.Printf("\nconvergence curve (range per round, log scale ▁=≤1e-6 … █=1):\n  %s\n",
			series.Sparkline(60, 1e-6))
		fmt.Printf("  rounds to range ≤ ε: %d\n", series.RoundsToRange(fl.eps))
	}

	if rec != nil {
		out, err := os.Create(fl.trace)
		if err != nil {
			return err
		}
		if err := trace.WriteJSONL(out, rec.Events()); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("event log (%d events) written to %s\n", rec.Len(), fl.trace)
	}
	return nil
}

// seedRow is the compact per-run record of the JSON report. An
// undecided run has no output range (Result.OutputRange reports +Inf,
// which JSON cannot carry): Range is nil — "output_range": null, an
// empty CSV/HTML cell — and the row's decided flag says why.
type seedRow struct {
	Seed    int64    `json:"seed"`
	Decided bool     `json:"decided"`
	Rounds  int      `json:"rounds"`
	Range   *float64 `json:"output_range"`
}

// newSeedRow condenses one run's Result into its report row.
func newSeedRow(seed int64, res *anondyn.Result) seedRow {
	row := seedRow{Seed: seed, Decided: res.Decided, Rounds: res.Rounds}
	if res.Decided {
		r := res.OutputRange()
		row.Range = &r
	}
	return row
}

// rangeCell renders the row's output range in %g form at the given
// precision (−1: shortest exact), or an empty cell for an undecided run.
func (row seedRow) rangeCell(prec int) string {
	if row.Range == nil {
		return ""
	}
	return strconv.FormatFloat(*row.Range, 'g', prec, 64)
}

// batchReport is the report document of one Monte-Carlo batch. It
// implements report.Document, keeping the historical JSON shape.
type batchReport struct {
	Algorithm string              `json:"algorithm"`
	N         int                 `json:"n"`
	F         int                 `json:"f"`
	Eps       float64             `json:"eps"`
	Adversary string              `json:"adversary"`
	Inputs    string              `json:"inputs"`
	Workers   int                 `json:"workers"`
	BaseSeed  int64               `json:"base_seed"`
	Aggregate anondyn.BatchReport `json:"aggregate"`
	Runs      []seedRow           `json:"runs"`
	// Series is the first seed's range-per-round curve, recorded only
	// for the HTML report's convergence chart; not part of the JSON.
	Series []float64 `json:"-"`
}

// WriteJSON implements report.Document with the historical shape.
func (r *batchReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteCSV implements report.Document: one row per seeded run.
func (r *batchReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seed", "decided", "rounds", "output_range"}); err != nil {
		return err
	}
	for _, row := range r.Runs {
		if err := cw.Write([]string{
			strconv.FormatInt(row.Seed, 10),
			strconv.FormatBool(row.Decided),
			strconv.Itoa(row.Rounds),
			row.rangeCell(-1),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHTML implements report.Document: one self-contained page with
// the aggregate summary, the convergence chart of the first seed, and
// the per-seed table.
func (r *batchReport) WriteHTML(w io.Writer) error {
	agg := report.HTMLTable{
		Caption: "aggregate",
		Header:  []string{"decided", "violations", "rounds mean", "rounds p95", "range max"},
		Rows: [][]string{{
			fmt.Sprintf("%d/%d", r.Aggregate.Decided, r.Aggregate.Runs),
			fmt.Sprint(r.Aggregate.Violations),
			fmt.Sprintf("%.1f", r.Aggregate.Rounds.Mean),
			fmt.Sprintf("%.0f", r.Aggregate.Rounds.P95),
			fmt.Sprintf("%.3g", r.Aggregate.OutputRange.Max),
		}},
	}
	runs := report.HTMLTable{
		Caption: "runs",
		Header:  []string{"seed", "decided", "rounds", "output range"},
	}
	for _, row := range r.Runs {
		runs.Rows = append(runs.Rows, []string{
			strconv.FormatInt(row.Seed, 10),
			strconv.FormatBool(row.Decided),
			strconv.Itoa(row.Rounds),
			row.rangeCell(3),
		})
	}
	blocks := []any{agg}
	if len(r.Series) > 0 {
		blocks = append(blocks, report.HTMLChart{
			Caption: fmt.Sprintf("convergence (seed %d)", r.BaseSeed),
			Series:  r.Series,
			Eps:     r.Eps,
		})
	}
	blocks = append(blocks, runs)
	title := fmt.Sprintf("%s n=%d f=%d — %s", r.Algorithm, r.N, r.F, r.Adversary)
	sub := fmt.Sprintf("%d seeds · base seed %d · ε=%g · inputs %s", len(r.Runs), r.BaseSeed, r.Eps, r.Inputs)
	return report.WriteHTMLPage(w, title, sub, blocks...)
}

// runBatch executes the grid's seed batch on the worker pool,
// streaming every result through the aggregate and the per-run rows,
// and prints (and optionally writes) the aggregates.
func runBatch(fl *flags, grid anondyn.Grid, target report.Target, opts anondyn.BatchOptions) error {
	stats := &anondyn.BatchStats{Eps: fl.eps}
	rows := make([]seedRow, 0, fl.seeds)
	err := grid.RunEach(opts, func(_ anondyn.Cell, _, run int, seed int64, res *anondyn.Result) error {
		rows = append(rows, newSeedRow(seed, res))
		return stats.Consume(run, seed, res)
	})
	if err != nil {
		return err
	}

	doc := &batchReport{
		Algorithm: fl.algo,
		N:         fl.n, F: fl.f, Eps: fl.eps,
		Adversary: fl.adversary,
		Inputs:    fl.inputs,
		Workers:   fl.workers,
		BaseSeed:  fl.seed,
		Aggregate: stats.Report(),
		Runs:      rows,
	}
	if target.Format == report.FormatHTML {
		// One extra sequential run of the first seed records the
		// convergence curve for the chart — noise beside the batch.
		series, err := grid.SeriesPerCell()
		if err != nil {
			return err
		}
		doc.Series = series[0]
	}
	if target.Stdout() {
		// Stdout report modes replace the human summary so the output
		// stays machine-readable.
		return target.Write(doc)
	}

	fmt.Printf("%s  n=%d f=%d ε=%g  adversary=%s  batch of %d seeds (base %d)\n",
		grid.Cells()[0].Algorithm, fl.n, fl.f, fl.eps, fl.adversary, fl.seeds, fl.seed)
	fmt.Printf("decided: %d/%d   safety violations: %d\n",
		stats.Decided(), stats.Runs(), stats.Violations())
	if r := stats.Rounds(); r.N > 0 {
		fmt.Printf("rounds:  mean %.1f  median %.0f  p95 %.0f  max %.0f\n",
			r.Mean, r.Median, r.P95, r.Max)
	}
	if g := stats.OutputRange(); g.N > 0 {
		fmt.Printf("range:   mean %.3g  max %.3g\n", g.Mean, g.Max)
	}
	if b := stats.Bytes(); b.N > 0 && b.Max > 0 {
		fmt.Printf("bytes:   mean %.0f per run\n", b.Mean)
	}

	if err := target.Write(doc); err != nil {
		return err
	}
	if target.Enabled() {
		fmt.Printf("report written to %s\n", target.Path)
	}
	return nil
}

// sweep compiles the scenario flags into the 1-cell declarative sweep
// dynasim runs and -save-spec writes. Batch mode accounts bandwidth,
// so only a batch's sweep sets account_bandwidth. The sweep passes
// through Encode and Parse, so the flags meet the checks a spec file
// meets, with the same key-citing errors.
func (fl *flags) sweep() (*spec.Sweep, error) {
	crashes, err := parseCrashes(fl.crash)
	if err != nil {
		return nil, err
	}
	casts, err := parseCasts(fl.byz)
	if err != nil {
		return nil, err
	}
	algo := strings.ToLower(fl.algo)
	sw := &spec.Sweep{
		Ns:               []int{fl.n},
		Fs:               []spec.Bound{{Lit: fl.f}},
		Epss:             []float64{fl.eps},
		Algorithms:       []string{algo},
		Adversaries:      []string{fl.adversary},
		SeedsPerCell:     fl.seeds,
		BaseSeed:         fl.seed,
		MaxRounds:        fl.rounds,
		AccountBandwidth: fl.batch(),
		Inputs:           fl.inputs,
		Crashes:          crashes,
		Byzantine:        casts,
	}
	sw.PEnd = fl.pEnd
	sw.PiggybackWindow = fl.window
	sw.MaxMessageBytes = fl.maxBytes
	if algo == "megaround" {
		sw.MegaT = fl.megaT
	}
	return spec.Parse(sw.Encode())
}

// parseCrashes reads the -crash grammar (node@round,…) into an explicit
// crash schedule.
func parseCrashes(list string) (*spec.Crashes, error) {
	if list == "" {
		return nil, nil
	}
	c := &spec.Crashes{}
	for _, part := range strings.Split(list, ",") {
		nodeStr, roundStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("crash entry %q wants node@round", part)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil {
			return nil, err
		}
		round, err := strconv.Atoi(roundStr)
		if err != nil {
			return nil, err
		}
		c.NodeList = append(c.NodeList, node)
		c.Rounds = append(c.Rounds, round)
	}
	return c, nil
}

// parseCasts reads the -byz grammar (node:strategy[:arg],…) into one
// declarative cast per node.
func parseCasts(list string) ([]spec.Cast, error) {
	if list == "" {
		return nil, nil
	}
	var casts []spec.Cast
	for _, part := range strings.Split(list, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("byz entry %q wants node:strategy[:arg]", part)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		arg := 0.0
		if len(fields) >= 3 {
			if arg, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, err
			}
		}
		cast := spec.Cast{NodeList: []int{node}, Strategy: fields[1]}
		switch fields[1] {
		case "extremist", "laggard", "mimic":
			cast.Args = []float64{arg}
		case "silent", "equivocate", "noise":
		default:
			return nil, fmt.Errorf("unknown strategy %q", fields[1])
		}
		casts = append(casts, cast)
	}
	return casts, nil
}
