package main

// The distributed sweep subcommands. A sweep is sliced into shards —
// (spec, cell range, seed range) units — dispatched to workers over the
// shard protocol, requeued when a worker is lost, and merged back in
// global run order as records arrive. The merged rows are
// byte-identical to a local run of the same spec and seeds (dyna sweep
// -spec), regardless of worker count, shard count, or mid-sweep worker
// churn.
//
// One-shot (a fixed fleet, run to completion, exit):
//
//	dyna join -listen 127.0.0.1:7101 &    # on each worker machine
//	dyna join -listen 127.0.0.1:7102 &
//	dyna sweep -spec examples/specs/e3-resilience-boundary.yaml \
//	           -fleet 127.0.0.1:7101,127.0.0.1:7102 -seeds 200 -report csv
//	dyna sweep -spec-dir examples/specs -fleet 127.0.0.1:7101 -seeds 1
//
// -spec and -spec-dir run through one in-process control plane; -spec
// is a one-file list. -spec-dir submits every scenario file in the
// directory up front, so the sweeps run concurrently over the shared
// fleet under fair round-robin scheduling; results print in name order
// either way. CSV file targets fill row by row as cells commit, and an
// HTML -spec-dir target also writes a combined index page (linking the
// per-spec reports) at the flag's own path.
//
// Service (a resident control plane; workers and sweeps come and go):
//
//	dyna serve :7200 -token s3cret &
//	dyna join 127.0.0.1:7200 -token s3cret &   # elastic workers
//	dyna submit 127.0.0.1:7200 -token s3cret \
//	            -spec examples/specs/e3-resilience-boundary.yaml -report out.json
//	dyna status 127.0.0.1:7200 -token s3cret
//
// serve listens for join workers and submit clients on one port;
// SIGINT/SIGTERM drains gracefully (queued sweeps finish, then exit;
// interrupt again to force). A joined worker drains the same way: the
// shard in flight finishes and the leave frame goes out. submit
// enqueues one sweep, streams live status lines to stderr, and renders
// the finished rows exactly like a one-shot run. status prints a
// control plane's worker census and queued/running sweeps.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
	"anondyn/internal/transport"
)

func runServe(args []string) error {
	fs := newFlagSet("serve", " <listen-address>")
	var (
		fleet   = fs.String("fleet", "", "comma-separated dyna join -listen addresses to dial as a seed fleet")
		quiet   = fs.Bool("quiet", false, "suppress the dispatch log")
		token   = addToken(fs)
		timeout = addTimeout(fs)
		proc    = addProcess(fs)
	)
	operands, err := parse(fs, args, 1, 1)
	if err != nil {
		return err
	}
	return proc(func(coll *metrics.Collector) error {
		popts := shard.PlaneOptions{
			Addr:      operands[0],
			Token:     *token,
			IOTimeout: *timeout,
			Metrics:   coll,
		}
		if !*quiet {
			popts.Log = stderrLog
		}
		cp, err := shard.NewControlPlane(popts)
		if err != nil {
			return err
		}
		for _, a := range splitAddrs(*fleet) {
			cp.AddWorker(a)
		}
		fmt.Printf("control plane listening on %s\n", cp.Addr())
		errc := make(chan error, 1)
		go func() { errc <- cp.Serve() }()
		return serveUntilSignal(errc, "queued sweeps finish; interrupt again to force", cp.Shutdown, cp.Close)
	})
}

func runJoin(args []string) error {
	fs := newFlagSet("join", " [control-plane-address]")
	var (
		listen  = fs.String("listen", "", "also accept dialing coordinators on this address (the one-shot dyna sweep -fleet)")
		workers = fs.Int("workers", 0, "per-shard worker-pool size (0 = GOMAXPROCS)")
		token   = addToken(fs)
		proc    = addProcess(fs)
	)
	operands, err := parse(fs, args, 0, 1)
	if err != nil {
		return err
	}
	if len(operands) == 0 && *listen == "" {
		return errors.New("join wants a control-plane address, -listen, or both")
	}
	return proc(func(coll *metrics.Collector) error {
		wopts := shard.WorkerOptions{Workers: *workers, Token: *token, Log: stderrLog}
		if coll != nil {
			wopts.Metrics = coll
		}
		w, err := shard.NewWorker(*listen, wopts)
		if err != nil {
			return err
		}
		errc := make(chan error, 1)
		if *listen != "" {
			fmt.Printf("sweep worker listening on %s\n", w.Addr())
			if len(operands) == 0 {
				return w.Serve()
			}
			go func() { errc <- w.Serve() }()
		}
		fmt.Printf("joining control plane at %s\n", operands[0])
		joined := make(chan struct{})
		go func() {
			w.JoinLoop(operands[0])
			close(joined)
		}()
		return serveUntilSignal(errc, "current shard finishes, then leave",
			func() { w.Drain(); <-joined; w.Close() },
			func() { w.Close(); <-joined })
	})
}

// runStatus asks a resident control plane for its live census and
// active sweep list, and prints one line per sweep.
func runStatus(args []string) error {
	fs := newFlagSet("status", " <control-plane-address>")
	token, timeout := addToken(fs), addTimeout(fs)
	operands, err := parse(fs, args, 1, 1)
	if err != nil {
		return err
	}
	addr := operands[0]
	st, err := transport.QueryPlaneStatus(addr, *token, *timeout)
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

// runSubmit enqueues one sweep on a resident control plane and renders
// the merged rows exactly like a one-shot run — the rows travel as
// JSON, which round-trips float64 exactly, so the report is still
// byte-identical to a local run.
func runSubmit(args []string) error {
	fs := newFlagSet("submit", " <control-plane-address>")
	var (
		src     = addSource(fs, false, true)
		shardsN = fs.Int("shards", 0, "target shard count (0 = sized from the fleet)")
		quiet   = fs.Bool("quiet", false, "suppress the banner and status lines")
		target  = addReport(fs, "")
		token   = addToken(fs)
		timeout = addTimeout(fs)
		proc    = addProcess(fs)
	)
	operands, err := parse(fs, args, 1, 1)
	if err != nil {
		return err
	}
	return proc(func(*metrics.Collector) error {
		if src.file == "" {
			return errors.New("submit needs -spec (the scenario file to enqueue)")
		}
		data, err := os.ReadFile(src.file)
		if err != nil {
			return err
		}
		sw, grid, err := spec.Compile(data, src.seeds)
		if err != nil {
			return err
		}
		fleet := 0
		onStatus := func(st transport.SweepStatus) {
			fleet = st.Workers
			if !*quiet {
				fmt.Fprintf(os.Stderr, "sweep %d: %d/%d runs, %d workers, %d requeues\n",
					st.Sweep, st.Done, st.Total, st.Workers, st.Requeues)
			}
		}
		rowsJSON, err := transport.SubmitSweep(operands[0], *token, transport.SubmitRequest{
			SeedsPerCell: src.seeds,
			Shards:       *shardsN,
			Name:         filepath.Base(src.file),
			Spec:         data,
		}, *timeout, onStatus)
		if err != nil {
			return err
		}
		var rows []anondyn.CellResult
		if err := json.Unmarshal(rowsJSON, &rows); err != nil {
			return fmt.Errorf("rows from control plane: %w", err)
		}
		return report.Emit(report.NewSweep(sw, src.file, fleet, rows), grid, *target, sw.Description, "", *quiet, false)
	})
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

// runSweeps shards spec files over the -fleet workers through one
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

// splitAddrs splits a comma-separated address list, dropping blanks.
func splitAddrs(list string) []string {
	return strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' })
}
