// Command dynagrid runs distributed sweeps: it slices committed
// scenario files into shards — (spec, cell range, seed range) units —
// dispatches them to dynabench workers over the shard protocol,
// requeues shards when a worker is lost, and merges the per-run
// records back in global run order as they arrive. The merged rows are
// byte-identical to a single-process run of the same spec and seeds
// (dynabench -spec), regardless of worker count, shard count, or
// mid-sweep worker churn.
//
// One-shot mode (a fixed fleet, run to completion, exit):
//
//	dynabench -serve 127.0.0.1:7101 &    # on each worker machine
//	dynabench -serve 127.0.0.1:7102 &
//	dynagrid -spec examples/specs/e3-resilience-boundary.yaml \
//	         -workers 127.0.0.1:7101,127.0.0.1:7102 -seeds 200 -report csv
//	dynagrid -spec-dir examples/specs -workers 127.0.0.1:7101 -seeds 1
//
// -spec-dir submits every scenario file in the directory to one
// in-process control plane, so the sweeps run concurrently over the
// shared fleet under fair round-robin scheduling; results print in
// name order either way.
//
// Service mode (a resident control plane; workers and sweeps come and
// go):
//
//	dynagrid -serve-coordinator :7200 -token s3cret &
//	dynabench -join 127.0.0.1:7200 -token s3cret &   # elastic workers
//	dynagrid -submit 127.0.0.1:7200 -token s3cret \
//	         -spec examples/specs/e3-resilience-boundary.yaml -report out.json
//
// -serve-coordinator listens for dynabench -join workers and dynagrid
// -submit clients on one port; SIGINT/SIGTERM drains gracefully
// (queued sweeps finish, then exit; interrupt again to force). -submit
// enqueues one sweep, streams live status lines to stderr, and renders
// the finished rows exactly like a one-shot run. -status asks a
// resident control plane for its worker census and queued/running
// sweeps, prints them, and exits:
//
//	dynagrid -status 127.0.0.1:7200 -token s3cret
//
// -cpuprofile writes a CPU profile of the whole run, in any mode, to a
// file (read it with go tool pprof), -exectrace a runtime execution
// trace (go tool trace); an uncreatable path fails before anything runs.
//
// -report csv / -report json / -report html stream the rows to stdout
// in that format; a path writes a file (.csv for CSV, .html for a
// self-contained HTML report, anything else JSON with the same envelope
// as dynabench -report, so the two are directly diffable). CSV targets
// fill row by row as cells commit. With -spec-dir a file target fans
// out to one derived file per spec, and an HTML target additionally
// writes a combined index page (linking the per-spec reports) at the
// flag's own path. -metrics streams live aggregate telemetry —
// including the workers' per-shard progress frames — as NDJSON to a
// file or TCP address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
	"anondyn/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynagrid:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("dynagrid", flag.ContinueOnError)
	var (
		specFile   = fs.String("spec", "", "YAML/JSON scenario file to shard (this or -spec-dir is required)")
		specDir    = fs.String("spec-dir", "", "submit every scenario file (*.yaml, *.yml, *.json) in this directory concurrently over one worker fleet")
		workers    = fs.String("workers", "", "comma-separated worker addresses (dynabench -serve endpoints; required for one-shot runs, optional seed fleet with -serve-coordinator)")
		shardsN    = fs.Int("shards", 0, "target shard count per sweep (0 = sized from the fleet)")
		seedsN     = fs.Int("seeds", 0, "override the spec's seeds_per_cell (0 = use the file's)")
		maxPending = fs.Int("maxpending", 0, "per-shard reorder window on the workers (0 = the built-in bound, a multiple of each worker's pool size)")
		timeout    = fs.Duration("timeout", shard.DefaultIOTimeout, "per-frame I/O bound (for a record stream: the gap between records)")
		reportOut  = fs.String("report", "", `"csv"/"json"/"html" for stdout, or a path (.csv/.html → that format, else JSON); with -spec-dir, one file per spec plus an HTML index`)
		metricsOut = fs.String("metrics", "", "stream live metrics snapshots (incl. per-shard worker telemetry) as NDJSON to this file or host:port address")
		quiet      = fs.Bool("quiet", false, "suppress the banner, dispatch summary, and status lines")
		serveCoord = fs.String("serve-coordinator", "", "run a resident control plane on this address: workers join (dynabench -join), sweeps arrive via -submit")
		submitAddr = fs.String("submit", "", "submit -spec to the control plane at this address and wait for the merged rows")
		statusAddr = fs.String("status", "", "query the control plane at this address and list queued/running sweeps")
		token      = fs.String("token", "", "shared secret for the shard handshake (all parties must agree; empty disables auth)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
		execTrace  = fs.String("exectrace", "", "write a runtime execution trace of the whole run to this file (read it with go tool trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	addrs := splitAddrs(*workers)

	if *statusAddr != "" {
		if *specFile != "" || *specDir != "" || *submitAddr != "" || *serveCoord != "" {
			return fmt.Errorf("-status is a read-only query; it takes no sweep or service flags")
		}
		return runStatus(*statusAddr, *token, *timeout)
	}
	if *serveCoord != "" {
		if *specFile != "" || *specDir != "" || *submitAddr != "" {
			return fmt.Errorf("-serve-coordinator is a service mode; sweeps arrive via dynagrid -submit (or workers via dynabench -join)")
		}
		return serveCoordinator(*serveCoord, addrs, shard.PlaneOptions{
			Token:      *token,
			IOTimeout:  *timeout,
			MaxPending: *maxPending,
			Metrics:    coll,
		}, *quiet)
	}
	if *submitAddr != "" {
		if *specFile == "" {
			return fmt.Errorf("-submit needs -spec (the scenario file to enqueue)")
		}
		if *specDir != "" || len(addrs) > 0 {
			return fmt.Errorf("-submit sends one -spec to a control plane; -spec-dir and -workers are one-shot flags")
		}
		return runSubmit(*submitAddr, *specFile, *seedsN, *shardsN, *token, *timeout,
			report.ParseTarget(*reportOut), *quiet)
	}

	if *specFile == "" && *specDir == "" {
		return fmt.Errorf("-spec or -spec-dir is required")
	}
	if *specFile != "" && *specDir != "" {
		return fmt.Errorf("-spec and -spec-dir are mutually exclusive")
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-workers is required (comma-separated dynabench -serve addresses)")
	}
	opts := shard.Options{
		Workers:      addrs,
		Shards:       *shardsN,
		SeedsPerCell: *seedsN,
		MaxPending:   *maxPending,
		Token:        *token,
		IOTimeout:    *timeout,
		Log:          func(string, ...any) {},
	}
	if !*quiet {
		opts.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	opts.Metrics = coll

	target := report.ParseTarget(*reportOut)
	if *specDir != "" {
		return runSpecDir(*specDir, opts, target, *quiet)
	}
	return runSpecFile(*specFile, opts, target, *quiet)
}

// runStatus asks a resident control plane for its live census and
// active sweep list, and prints one line per sweep.
func runStatus(addr, token string, timeout time.Duration) error {
	st, err := transport.QueryPlaneStatus(addr, token, timeout)
	if err != nil {
		return err
	}
	fmt.Printf("control plane %s: %d workers, %d active sweeps\n", addr, st.Workers, len(st.Sweeps))
	for _, sw := range st.Sweeps {
		name := sw.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Printf("  sweep %d  %-8s %6d/%d runs  %d requeues  %s\n",
			sw.ID, sw.State, sw.Done, sw.Total, sw.Requeues, name)
	}
	return nil
}

// serveCoordinator runs the resident control plane until a signal,
// then drains: queued sweeps finish, members get stop frames, exit. A
// second interrupt forces an immediate close.
func serveCoordinator(addr string, seedWorkers []string, popts shard.PlaneOptions, quiet bool) error {
	popts.Addr = addr
	if !quiet {
		popts.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	cp, err := shard.NewControlPlane(popts)
	if err != nil {
		return err
	}
	for _, a := range seedWorkers {
		cp.AddWorker(a)
	}
	fmt.Printf("control plane listening on %s\n", cp.Addr())
	errc := make(chan error, 1)
	go func() { errc <- cp.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		cp.Close()
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "dynagrid: draining (queued sweeps finish; interrupt again to force)")
		done := make(chan struct{})
		go func() { cp.Shutdown(); close(done) }()
		select {
		case <-done:
			return nil
		case <-sig:
			cp.Close()
			return nil
		}
	}
}

// runSubmit enqueues one sweep on a resident control plane and renders
// the merged rows exactly like a one-shot run — the rows travel as
// JSON, which round-trips float64 exactly, so the report is still
// byte-identical to a local run.
func runSubmit(cpAddr, path string, seeds, shardsN int, token string, timeout time.Duration, target report.Target, quiet bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sw, grid, err := spec.Compile(data, seeds)
	if err != nil {
		return err
	}
	fleet := 0
	onStatus := func(st transport.SweepStatus) {
		fleet = st.Workers
		if !quiet {
			fmt.Fprintf(os.Stderr, "sweep %d: %d/%d runs, %d workers, %d requeues\n",
				st.Sweep, st.Done, st.Total, st.Workers, st.Requeues)
		}
	}
	rowsJSON, err := transport.SubmitSweep(cpAddr, token, transport.SubmitRequest{
		SeedsPerCell: seeds,
		Shards:       shardsN,
		Name:         filepath.Base(path),
		Spec:         data,
	}, timeout, onStatus)
	if err != nil {
		return err
	}
	var rows []anondyn.CellResult
	if err := json.Unmarshal(rowsJSON, &rows); err != nil {
		return fmt.Errorf("rows from control plane: %w", err)
	}
	doc := &report.Sweep{
		Spec:         sw.Name,
		SeedsPerCell: max(sw.SeedsPerCell, 1),
		BaseSeed:     sw.BaseSeed,
		Workers:      fleet,
		Cells:        rows,
		Title:        sw.RunTitle(path, len(rows)),
		Verdicts:     sw.Verdicts(rows),
		Storm:        sw.StormTimeline(),
	}
	if target.Format == report.FormatHTML {
		if doc.Series, err = grid.SeriesPerCell(); err != nil {
			return err
		}
	}
	if target.Stdout() {
		return target.Write(doc)
	}
	if !quiet && sw.Description != "" {
		fmt.Printf("# %s\n", sw.Description)
	}
	if err := spec.Table(doc.Title, rows).Fprint(os.Stdout); err != nil {
		return err
	}
	if err := report.FprintVerdicts(os.Stdout, doc.Verdicts); err != nil {
		return err
	}
	if err := target.Write(doc); err != nil {
		return err
	}
	if target.Enabled() && !quiet {
		fmt.Printf("(report written to %s)\n", target.Path)
	}
	return nil
}

// rowStream wires a CSV report target into the control plane's
// streaming merge: the file (or stdout) fills row by row as cells
// commit instead of materializing after the sweep.
type rowStream struct {
	stream *report.RowStream
	f      *os.File // nil for stdout
	err    error    // first write failure, surfaced after the run
}

// newRowStream opens the CSV target and writes its header; the column
// layout comes from the compiled cells since no row exists yet.
func newRowStream(target report.Target, cells []anondyn.Cell) (*rowStream, error) {
	w := io.Writer(os.Stdout)
	var f *os.File
	if target.Path != "" {
		var err error
		if f, err = os.Create(target.Path); err != nil {
			return nil, err
		}
		w = f
	}
	stream, err := report.NewRowStream(w, spec.CellsDeclareVariants(cells))
	if err != nil {
		if f != nil {
			f.Close()
		}
		return nil, err
	}
	return &rowStream{stream: stream, f: f}, nil
}

// onRow is the shard.Options.OnRow callback (runs under the plane's
// scheduling lock; the write is buffered and small).
func (rs *rowStream) onRow(_ int, row anondyn.CellResult) {
	if rs.err == nil {
		rs.err = rs.stream.Row(row)
	}
}

func (rs *rowStream) close() error {
	if rs.f != nil {
		if err := rs.f.Close(); rs.err == nil {
			rs.err = err
		}
	}
	return rs.err
}

// runSpecFile shards one scenario file across the workers and reports.
func runSpecFile(path string, opts shard.Options, target report.Target, quiet bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rs *rowStream
	if target.Format == report.FormatCSV {
		_, grid, err := spec.Compile(data, opts.SeedsPerCell)
		if err != nil {
			return err
		}
		if rs, err = newRowStream(target, grid.Cells()); err != nil {
			return err
		}
		opts.OnRow = rs.onRow
	}
	res, err := shard.Run(data, opts)
	if err != nil {
		if rs != nil {
			rs.close() //nolint:errcheck // the run error wins
		}
		return err
	}
	if rs != nil {
		if err := rs.close(); err != nil {
			return err
		}
	}
	doc := envelope(res, path, len(opts.Workers))
	if target.Format == report.FormatHTML {
		// The charts come from a local sequential pass: one extra run per
		// cell, next to nothing beside the distributed Monte-Carlo.
		_, grid, err := spec.Compile(data, opts.SeedsPerCell)
		if err != nil {
			return err
		}
		if doc.Series, err = grid.SeriesPerCell(); err != nil {
			return err
		}
	}

	if target.Stdout() {
		// Stdout report modes replace the human table so the output
		// stays machine-readable; the CSV rows already streamed.
		if rs != nil {
			return nil
		}
		return target.Write(doc)
	}

	if !quiet && res.Sweep.Description != "" {
		fmt.Printf("# %s\n", res.Sweep.Description)
	}
	if err := spec.Table(title(res, path), res.Rows).Fprint(os.Stdout); err != nil {
		return err
	}
	if err := report.FprintVerdicts(os.Stdout, res.Sweep.Verdicts(res.Rows)); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("(%d shards over %d workers, %d requeued)\n", len(res.Shards), len(opts.Workers), res.Requeues)
		for _, addr := range opts.Workers {
			fmt.Printf("  %s: %d runs\n", addr, res.RunsByWorker[addr])
		}
	}
	if rs == nil {
		if err := target.Write(doc); err != nil {
			return err
		}
	}
	if target.Enabled() && !quiet {
		fmt.Printf("(report written to %s)\n", target.Path)
	}
	return nil
}

// runSpecDir submits every scenario file in the directory to one
// in-process control plane over one worker fleet, so the sweeps run
// concurrently under fair round-robin scheduling. Results print in
// name order regardless of completion order; a file report target
// fans out per spec, and an HTML target gains a combined index page.
func runSpecDir(dir string, opts shard.Options, target report.Target, quiet bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
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
		return fmt.Errorf("%s: no scenario files (*.yaml, *.yml, *.json)", dir)
	}
	sort.Strings(files)

	cp, err := shard.NewControlPlane(shard.PlaneOptions{
		Token:            opts.Token,
		IOTimeout:        opts.IOTimeout,
		DialRetries:      opts.DialRetries,
		RetryDelay:       opts.RetryDelay,
		MaxPending:       opts.MaxPending,
		Log:              opts.Log,
		Metrics:          opts.Metrics,
		MetricsEveryRuns: opts.MetricsEveryRuns,
		AbortWhenEmpty:   true, // a fixed fleet that is gone is gone
	})
	if err != nil {
		return err
	}
	defer cp.Close()
	shardsN := opts.Shards
	if shardsN < 1 {
		shardsN = 2 * len(opts.Workers)
	}

	type job struct {
		path   string
		data   []byte
		target report.Target
		rs     *rowStream
		h      *shard.SweepHandle
	}
	jobs := make([]*job, 0, len(files))
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		j := &job{path: path, data: data, target: target.ForSpec(path)}
		var onRow func(int, anondyn.CellResult)
		if j.target.Format == report.FormatCSV && j.target.Path != "" {
			// Per-spec CSV files fill as their sweep's cells commit.
			// Stdout CSV stays buffered: concurrent sweeps would
			// interleave their rows.
			_, grid, err := spec.Compile(data, opts.SeedsPerCell)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if j.rs, err = newRowStream(j.target, grid.Cells()); err != nil {
				return err
			}
			onRow = j.rs.onRow
		}
		h, err := cp.Submit(data, shard.SubmitOptions{
			SeedsPerCell: opts.SeedsPerCell,
			Shards:       shardsN,
			Name:         filepath.Base(path),
			OnRow:        onRow,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		j.h = h
		jobs = append(jobs, j)
	}
	for _, addr := range opts.Workers {
		cp.AddWorker(addr)
	}

	var index []report.IndexEntry
	for i, j := range jobs {
		res, err := j.h.Wait()
		if err != nil {
			if j.rs != nil {
				j.rs.close() //nolint:errcheck // the sweep error wins
			}
			return fmt.Errorf("%s: %w", j.path, err)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := emitJob(j.path, j.data, j.rs, res, opts, j.target, quiet); err != nil {
			return fmt.Errorf("%s: %w", j.path, err)
		}
		index = append(index, report.IndexEntry{
			Title: title(res, j.path),
			Path:  j.target.Path,
			Cells: res.Rows,
		})
	}
	cp.Shutdown()

	if target.Format == report.FormatHTML && target.Path != "" {
		if err := report.WriteIndexFile(target.Path, "sweep reports: "+dir, index); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("(index written to %s)\n", target.Path)
		}
	}
	return nil
}

// emitJob renders one finished directory-batch sweep: human table,
// dispatch summary, and the per-spec report artifact (unless its CSV
// already streamed).
func emitJob(path string, data []byte, rs *rowStream, res *shard.Result, opts shard.Options, target report.Target, quiet bool) error {
	if rs != nil {
		if err := rs.close(); err != nil {
			return err
		}
	}
	doc := envelope(res, path, len(opts.Workers))
	if target.Format == report.FormatHTML {
		_, grid, err := spec.Compile(data, opts.SeedsPerCell)
		if err != nil {
			return err
		}
		if doc.Series, err = grid.SeriesPerCell(); err != nil {
			return err
		}
	}
	if target.Stdout() {
		return target.Write(doc)
	}
	if !quiet && res.Sweep.Description != "" {
		fmt.Printf("# %s\n", res.Sweep.Description)
	}
	if err := spec.Table(title(res, path), res.Rows).Fprint(os.Stdout); err != nil {
		return err
	}
	if err := report.FprintVerdicts(os.Stdout, res.Sweep.Verdicts(res.Rows)); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("(%d shards over %d workers, %d requeued)\n", len(res.Shards), len(opts.Workers), res.Requeues)
	}
	if rs == nil {
		if err := target.Write(doc); err != nil {
			return err
		}
	}
	if target.Enabled() && !quiet {
		fmt.Printf("(report written to %s)\n", target.Path)
	}
	return nil
}

func title(res *shard.Result, path string) string {
	return res.Sweep.RunTitle(path, len(res.Rows))
}

// envelope builds the shared report.Sweep document. The cells array is
// the determinism contract — byte-identical to the local run's — while
// the envelope records run metadata ("workers" here counts worker
// processes; dynabench records its pool size), so parity checks compare
// .cells, as the CI distributed-smoke job does.
func envelope(res *shard.Result, path string, workers int) *report.Sweep {
	per := res.Sweep.SeedsPerCell
	if per < 1 {
		per = 1
	}
	return &report.Sweep{
		Spec:         res.Sweep.Name,
		SeedsPerCell: per,
		BaseSeed:     res.Sweep.BaseSeed,
		Workers:      workers,
		Cells:        res.Rows,
		Title:        title(res, path),
		// Verdicts derive from (spec, rows) alone, so the sharded
		// report carries the same verdict block as a local run.
		Verdicts: res.Sweep.Verdicts(res.Rows),
		Storm:    res.Sweep.StormTimeline(),
	}
}

func splitAddrs(list string) []string {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
