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
// -spec and -spec-dir run through one in-process control plane; -spec
// is a one-file list. -spec-dir submits every scenario file in the
// directory up front, so the sweeps run concurrently over the shared
// fleet under fair round-robin scheduling; results print in name order
// either way.
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
	coll, stop, err := metrics.StartProcess(*cpuProfile, *execTrace, *metricsOut)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()
	addrs := splitAddrs(*workers)
	target := report.ParseTarget(*reportOut)
	popts := shard.PlaneOptions{
		Token:      *token,
		IOTimeout:  *timeout,
		MaxPending: *maxPending,
		Metrics:    coll,
	}
	if !*quiet {
		popts.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}

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
		popts.Addr = *serveCoord
		return serveCoordinator(addrs, popts)
	}
	if *submitAddr != "" {
		if *specFile == "" {
			return fmt.Errorf("-submit needs -spec (the scenario file to enqueue)")
		}
		if *specDir != "" || len(addrs) > 0 {
			return fmt.Errorf("-submit sends one -spec to a control plane; -spec-dir and -workers are one-shot flags")
		}
		return runSubmit(*submitAddr, *specFile, *seedsN, *shardsN, *token, *timeout, target, *quiet)
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
	files := []string{*specFile}
	if *specDir != "" {
		if files, err = spec.DirFiles(*specDir); err != nil {
			return err
		}
	}
	popts.AbortWhenEmpty = true // a fixed fleet that is gone is gone
	return runSweeps(files, *specDir, popts, addrs, *shardsN, *seedsN, target, *quiet)
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
func serveCoordinator(seedWorkers []string, popts shard.PlaneOptions) error {
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
	return report.Emit(report.NewSweep(sw, path, fleet, rows), grid, target, sw.Description, "", quiet, false)
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

// onRow is the shard.SubmitOptions.OnRow callback (runs under the plane's
// scheduling lock; the write is buffered and small).
func (rs *rowStream) onRow(_ int, row anondyn.CellResult) {
	if rs.err == nil {
		rs.err = rs.stream.Row(row)
	}
}

// close closes the target file and reports the stream's first error.
// It is idempotent and accepts a nil stream, so one cleanup can close
// every stream a run opened.
func (rs *rowStream) close() error {
	if rs == nil {
		return nil
	}
	if rs.f != nil {
		if err := rs.f.Close(); rs.err == nil {
			rs.err = err
		}
		rs.f = nil
	}
	return rs.err
}

// runSweeps shards spec files over the -workers fleet through one
// in-process control plane. Every file is submitted up front, so the
// sweeps run concurrently under fair round-robin scheduling, and the
// results print in file order. dir is the -spec-dir ("" for one -spec):
// there a file target fans out to one derived file per spec, an HTML
// target gains a combined index page, and only file CSV targets stream
// (concurrent sweeps on stdout would interleave their rows). One -spec
// keeps the plain target, streams CSV to stdout too, and lists every
// worker's run count.
func runSweeps(files []string, dir string, popts shard.PlaneOptions, addrs []string, shards, seeds int, target report.Target, quiet bool) error {
	cp, err := shard.NewControlPlane(popts)
	if err != nil {
		return err
	}
	if shards < 1 {
		shards = 2 * len(addrs)
	}
	type job struct {
		path   string
		grid   anondyn.Grid
		target report.Target
		rs     *rowStream
		h      *shard.SweepHandle
	}
	var jobs []*job
	defer func() {
		cp.Close() // no row callback runs after this
		for _, j := range jobs {
			j.rs.close() //nolint:errcheck // an earlier error wins
		}
	}()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, grid, err := spec.Compile(data, seeds)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		j := &job{path: path, grid: grid, target: target}
		jobs = append(jobs, j)
		if dir != "" {
			j.target = target.ForSpec(path)
		}
		var onRow func(int, anondyn.CellResult)
		if j.target.Format == report.FormatCSV && (dir == "" || j.target.Path != "") {
			if j.rs, err = newRowStream(j.target, grid.Cells()); err != nil {
				return err
			}
			onRow = j.rs.onRow
		}
		j.h, err = cp.Submit(data, shard.SubmitOptions{
			SeedsPerCell: seeds,
			Shards:       shards,
			Name:         filepath.Base(path),
			OnRow:        onRow,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, addr := range addrs {
		cp.AddWorker(addr)
	}

	var index []report.IndexEntry
	for i, j := range jobs {
		res, err := j.h.Wait()
		if err == nil {
			err = j.rs.close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", j.path, err)
		}
		if i > 0 {
			fmt.Println()
		}
		footer := ""
		if !quiet {
			footer = fmt.Sprintf("(%d shards over %d workers, %d requeued)\n", len(res.Shards), len(addrs), res.Requeues)
			if dir == "" {
				for _, addr := range addrs {
					footer += fmt.Sprintf("  %s: %d runs\n", addr, res.RunsByWorker[addr])
				}
			}
		}
		doc := report.NewSweep(res.Sweep, j.path, len(addrs), res.Rows)
		if err := report.Emit(doc, j.grid, j.target, res.Sweep.Description, footer, quiet, j.rs != nil); err != nil {
			return fmt.Errorf("%s: %w", j.path, err)
		}
		index = append(index, report.IndexEntry{Title: doc.Title, Path: j.target.Path, Cells: res.Rows})
	}
	cp.Shutdown()

	if dir != "" && target.Format == report.FormatHTML && target.Path != "" {
		if err := report.WriteIndexFile(target.Path, "sweep reports: "+dir, index); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("(index written to %s)\n", target.Path)
		}
	}
	return nil
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
