package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/harness"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/sim"
	"anondyn/internal/spec"
	"anondyn/internal/transport"
)

// perLayer are the metrics of a traced run, one group per module. A
// workload measures the ones its layers take part in and reports 0 for
// the rest: a layer that is idle on a workload cannot move it. README.md
// says which end-to-end metric each is expected to move, and where.
var perLayer = []metricDef{
	{"spec.parse_us", "us"},
	{"spec.compile_us", "us"},
	{"anondyn.scenario_compile_us", "us"},
	{"anondyn.run_us_p50", "us"},
	{"anondyn.run_us_p99", "us"},
	{"anondyn.fold_ns_per_record", "ns"},
	{"anondyn.grid_run_s", "s"},
	{"harness.dispatch_ns_per_task", "ns"},
	{"harness.speedup_2w", "ratio"},
	{"sim.rounds", "count"},
	{"sim.edges", "count"},
	{"sim.lost", "count"},
	{"sim.step_ns_per_edge", "ns"},
	{"sim.self_ns_per_edge", "ns"},
	{"sim.new_engine_ms", "ms"},
	{"adversary.gen_ns_per_edge", "ns"},
	{"adversary.dense_gen_ns_per_pair", "ns"},
	{"network.build_ns_per_edge", "ns"},
	{"network.dense_scan_ns_per_edge", "ns"},
	{"core.dac_deliver_ns_per_edge", "ns"},
	{"core.dbac_deliver_ns_per_edge", "ns"},
	{"core.reinit_ns_per_node", "ns"},
	{"core.state_mb", "MB"},
	{"fault.byz_messages_ns_per_round", "ns"},
	{"chaos.compile_storm_ms", "ms"},
	{"chaos.inputs_ms", "ms"},
	{"chaos.filter_ns_per_edge", "ns"},
	{"chaos.eval_us", "us"},
	{"shard.plan_us", "us"},
	{"shard.shards", "count"},
	{"shard.requeues", "count"},
	{"shard.worker_balance", "ratio"},
	{"shard.overhead_ratio", "ratio"},
	{"transport.record_ns", "ns"},
	{"transport.bytes_per_record", "B"},
	{"metrics.round_done_ns", "ns"},
	{"metrics.tap_overhead_ratio", "ratio"},
	{"report.json_us", "us"},
	{"report.csv_us", "us"},
	{"report.html_us", "us"},
	{"report.html_ms_2k", "ms"},
	{"proc.alloc_mb_per_rep", "MB"},
	{"proc.gc_cycles_per_rep", "count"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// runTraced measures one workload's per-layer metrics. Untraced and
// traced reps run on one set-up, so their ratio is the tracing overhead
// and their digests must agree; the layers the benchmark cannot wrap in
// place are then measured by replaying the workload's inputs through
// their public functions.
func runTraced(w workload, o options, h host) (*result, error) {
	res := &result{Workload: w.name, Traced: true, Seed: o.seed, Metrics: map[string]metric{}}
	inst, _, err := setUp(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()

	// A block of untraced reps, then a block of traced ones, each half as
	// long as an untraced run's timed part (the traced run also pays for
	// the replays below). The blocks are not interleaved: a rep's heap
	// layout depends on what the rep before it freed, and alternating two
	// allocation patterns scrambles the per-node state of whichever comes
	// second — measured at 1.5x on the sparse runs, in either direction.
	tr := newTracer()
	var (
		walls       [2][]time.Duration // untraced, traced
		allocs, gcs []float64
		last        repOut
	)
	for block, t := range []*tracer{nil, tr} {
		for begin := time.Now(); !o.enough(len(walls[block]), max((o.reps+1)/2, 2), 2, begin, o.seconds/2); {
			tr.rep = len(walls[block])
			out, cost, err := timedRep(inst, t)
			if err != nil {
				return nil, fmt.Errorf("%s: rep: %w", w.name, err)
			}
			res.account(out, fmt.Sprintf("block %d rep %d", block, tr.rep))
			fmt.Fprintf(o.log, "  %s rep %d (traced: %t): %.3fs\n", w.name, tr.rep, t != nil, cost.wall.Seconds())
			walls[block] = append(walls[block], cost.wall)
			if t == nil {
				allocs, gcs = append(allocs, cost.allocMB), append(gcs, float64(cost.gcCycles))
			}
			last = out
		}
	}
	plain, traced := walls[0], walls[1]
	res.Reps = len(traced)

	l := layerSet{}
	l["proc.alloc_mb_per_rep"] = median(allocs)
	l["proc.gc_cycles_per_rep"] = median(gcs)
	l["trace.overhead_ratio"] = median(secondsOf(traced)) / median(secondsOf(plain))
	in := layerInput{tr: tr, o: o, workload: w.name, last: last, plainWall: median(secondsOf(plain))}
	if err := inst.layers(l, in); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	l["proc.peak_rss_mb"] = peakRSSMB()

	for _, d := range perLayer {
		res.set(d.name, d.unit, l[d.name], nil)
	}
	path, err := tr.write(o.outDir, w.name, o.seed, h)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "  %s: %d spans written to %s\n", w.name, len(tr.spans), path)
	return res, nil
}

// layerSet collects a traced run's per-layer values by metric name.
type layerSet map[string]float64

// layerInput is what a traced run hands the workload to derive its
// per-layer values from.
type layerInput struct {
	tr        *tracer
	o         options
	workload  string
	last      repOut  // the last traced rep
	plainWall float64 // median untraced rep, seconds
}

// medianOf times fn n times and returns the median in the given unit.
func medianOf(n int, unit time.Duration, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start)) / float64(unit)
	}
	return median(xs)
}

// perItem times fn once and divides by the items it processed.
func perItem(items int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(items)
}

func perEdge(d time.Duration, edges int) float64 {
	if edges == 0 {
		return 0
	}
	return float64(d) / float64(edges)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stateMB is the aggregate size of the per-node novelty bitsets: n nodes
// of ⌈n/64⌉ words each. Computed, not measured.
func stateMB(n int) float64 { return float64(n) * float64(network.MaskWords(n)) * 8 / 1e6 }

// layers turns the sampled step spans of a single-run workload into
// per-edge figures. The step span's children are the adversary's
// generation, the edge set's build and the summed DeliverAll calls;
// what is left is the engine's own time.
func (r *roundRun) layers(l layerSet, in layerInput) error {
	tr, last := in.tr, in.last
	step, edges := tr.total("sim.step")
	gen, _ := tr.total("adversary.gen")
	build, _ := tr.total("network.build")
	deliver, delivered := tr.total("core.deliver")
	l["sim.rounds"] = float64(last.rounds)
	l["sim.edges"] = float64(last.edges)
	l["sim.lost"] = float64(last.lost)
	l["sim.step_ns_per_edge"] = perEdge(step, edges)
	l["sim.self_ns_per_edge"] = perEdge(step-tr.childTime("sim.step"), edges)
	l["adversary.gen_ns_per_edge"] = perEdge(gen, edges)
	l["network.build_ns_per_edge"] = perEdge(build, edges)
	l["core.dac_deliver_ns_per_edge"] = perEdge(deliver, delivered)
	l["core.state_mb"] = stateMB(r.n)
	var engines []float64
	for _, s := range tr.spans {
		if s.Name == "sim.new_engine" {
			engines = append(engines, float64(s.dur())/float64(time.Millisecond))
		}
	}
	l["sim.new_engine_ms"] = median(engines)
	return nil
}

// layers measures what a spec-driven workload's layers cost: the spans
// of the traced reps, then replays of the workload's own inputs.
func (s *sweep) layers(l layerSet, in layerInput) error {
	tr, o := in.tr, in.o
	var grids []float64
	for _, sp := range tr.spans {
		if sp.Name == "anondyn.grid_run" {
			grids = append(grids, sp.dur().Seconds())
		}
	}
	if len(grids) > 0 {
		l["anondyn.grid_run_s"] = median(grids)
	}

	l["spec.parse_us"] = medianOf(200, time.Microsecond, func() { spec.Parse(s.data) })              //nolint:errcheck // parsed by every rep
	l["spec.compile_us"] = medianOf(200, time.Microsecond, func() { spec.Compile(s.data, s.seeds) }) //nolint:errcheck
	s.reportLayers(l, o.seed)

	switch in.workload {
	case "sweep-small-local":
		return s.smallLocalLayers(l, o)
	case "sweep-small-sharded":
		return s.shardedLayers(l, in.plainWall)
	case "sweep-byz-dense":
		return s.byzLayers(l, o)
	case "storm-10k":
		return s.stormLayers(l, o)
	}
	return nil
}

// reportLayers renders the workload's own rows in each format, and a
// synthetic 2 000-row sweep as HTML.
func (s *sweep) reportLayers(l layerSet, seed int64) {
	var buf bytes.Buffer
	render := func(write func() error) float64 {
		return medianOf(50, time.Microsecond, func() {
			buf.Reset()
			write() //nolint:errcheck // bytes.Buffer writes cannot fail
		})
	}
	l["report.json_us"] = render(func() error { return s.doc.WriteJSON(&buf) })
	l["report.csv_us"] = render(func() error { return s.doc.WriteCSV(&buf) })
	l["report.html_us"] = render(func() error { return s.doc.WriteHTML(&buf) })

	rng := rand.New(rand.NewSource(seed))
	big := &report.Sweep{SeedsPerCell: 100, Title: "synthetic", Cells: make([]anondyn.CellResult, 2000)}
	for i := range big.Cells {
		rounds := anondyn.Summary{Mean: 20 + 80*rng.Float64(), P95: 120, Max: 150}
		big.Cells[i] = anondyn.CellResult{
			N: 5 + i%60, F: i % 7, Eps: 1e-3, Algorithm: "DAC", Adversary: fmt.Sprintf("er:%.2f", rng.Float64()),
			BatchReport: anondyn.BatchReport{Runs: 100, Decided: 100 - i%3, Rounds: rounds, OutputRange: anondyn.Summary{Max: 1e-3 * rng.Float64()}},
		}
	}
	l["report.html_ms_2k"] = medianOf(5, time.Millisecond, func() {
		buf.Reset()
		big.WriteHTML(&buf) //nolint:errcheck
	})
}

// smallCell is one run of the er-crash-sweep er:0.3 cell, built the way
// the spec's grid builds it.
func smallCell(seed int64) anondyn.Scenario {
	return anondyn.Scenario{
		N: 9, F: 2, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.RandomInputs(9, seed),
		Adversary: anondyn.Probabilistic(0.3, seed),
		Crashes:   map[int]anondyn.Crash{2: anondyn.CrashAt(4), 5: anondyn.CrashAt(9)},
		MaxRounds: 100000,
		Seed:      seed,
	}
}

func (s *sweep) smallLocalLayers(l layerSet, o options) error {
	base := o.seed * seedStride
	l["anondyn.scenario_compile_us"] = medianOf(200, time.Microsecond, func() { smallCell(base).Compile() }) //nolint:errcheck

	cs, err := smallCell(base).Compile()
	if err != nil {
		return err
	}
	const seeds = 2000
	runs := make([]float64, seeds)
	records := make([]anondyn.RunRecord, seeds)
	for i := range runs {
		seed := base + int64(i)
		inputs := anondyn.RandomInputs(9, seed)
		start := time.Now()
		res, err := cs.Run(seed, inputs)
		runs[i] = float64(time.Since(start)) / float64(time.Microsecond)
		if err != nil {
			return err
		}
		records[i] = anondyn.Record(res, 1e-3)
	}
	l["anondyn.run_us_p50"] = median(runs)
	l["anondyn.run_us_p99"] = quantile(runs, 0.99)

	const folds = 100000
	var stats anondyn.BatchStats
	l["anondyn.fold_ns_per_record"] = perItem(folds, func() {
		for i := 0; i < folds; i++ {
			stats.ConsumeRecord(records[i%seeds]) //nolint:errcheck // never fails
		}
	})

	l["harness.dispatch_ns_per_task"] = dispatchNsPerTask(o.procs)

	// Quarter-size reps: the ratios need the same work on both sides, not
	// the full rep.
	quarter := func(opts anondyn.BatchOptions) (float64, error) {
		_, grid, err := spec.Compile(s.data, max(s.seeds/4, 1))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = grid.Run(opts)
		return time.Since(start).Seconds(), err
	}
	one, err := quarter(anondyn.BatchOptions{Workers: 1})
	if err != nil {
		return err
	}
	two, err := quarter(anondyn.BatchOptions{Workers: 2})
	if err != nil {
		return err
	}
	l["harness.speedup_2w"] = one / two
	bare, err := quarter(anondyn.BatchOptions{Workers: o.procs})
	if err != nil {
		return err
	}
	tapped, err := quarter(anondyn.BatchOptions{Workers: o.procs, Metrics: metrics.NewCollector()})
	if err != nil {
		return err
	}
	l["metrics.tap_overhead_ratio"] = tapped / bare

	const samples = 1000000
	coll := metrics.NewCollector()
	l["metrics.round_done_ns"] = perItem(samples, func() {
		for i := 0; i < samples; i++ {
			coll.RoundDone(metrics.RoundSample{Round: i, Delivered: 20, Lost: 52, Running: 9, Range: 0.5})
		}
	})

	const rounds = 20000
	adv := anondyn.Probabilistic(0.3, base).(adversary.InPlace)
	dst, view := network.NewEdgeSet(9), adversary.SizeView(9)
	l["adversary.dense_gen_ns_per_pair"] = perItem(rounds*9*8, func() {
		for t := 0; t < rounds; t++ {
			adv.EdgesInto(t, view, dst)
		}
	})

	l["core.reinit_ns_per_node"], err = reinitNsPerNode(9, 100000)
	return err
}

// dispatchNsPerTask times the harness on tasks that do nothing: what the
// pool, the reorder window and the ordered sink cost per task.
func dispatchNsPerTask(workers int) float64 {
	const tasks = 200000
	return perItem(tasks, func() {
		harness.Run(tasks, func(i int) (int, error) { return i, nil }, //nolint:errcheck // no task fails
			func(int, int) error { return nil }, harness.Options{Workers: workers})
	})
}

// reinitNsPerNode times DAC.Reinit over a fleet of n nodes, passes
// times over.
func reinitNsPerNode(n, passes int) (float64, error) {
	procs := make([]*core.DAC, n)
	for i := range procs {
		p, err := core.NewDAC(n, i, 0.5, 1e-3)
		if err != nil {
			return 0, err
		}
		procs[i] = p
	}
	return perItem(n*passes, func() {
		for pass := 0; pass < passes; pass++ {
			for _, p := range procs {
				p.Reinit(0.25)
			}
		}
	}), nil
}

func (s *sweep) shardedLayers(l layerSet, shardedWall float64) error {
	cells, per := len(s.doc.Cells), s.seeds
	l["shard.plan_us"] = medianOf(200, time.Microsecond, func() { shard.Plan(cells, per, 2*len(s.workers)) })
	l["shard.shards"] = float64(len(s.last.Shards))
	l["shard.requeues"] = float64(s.last.Requeues)
	lo, hi := math.MaxInt, 0
	for _, runs := range s.last.RunsByWorker {
		lo, hi = min(lo, runs), max(hi, runs)
	}
	if hi > 0 && len(s.last.RunsByWorker) == len(s.workers) {
		l["shard.worker_balance"] = float64(lo) / float64(hi)
	}

	// The same spec bytes and seeds on the local pool, for the ratio.
	local := &sweep{data: s.data, seeds: s.seeds, procs: s.procs}
	if err := local.warm(); err != nil {
		return err
	}
	var walls []time.Duration
	for i := 0; i < 2; i++ {
		_, cost, err := timedRep(local, nil)
		if err != nil {
			return err
		}
		walls = append(walls, cost.wall)
	}
	l["shard.overhead_ratio"] = shardedWall / median(secondsOf(walls))

	ns, bytesPer, err := transportReplay(100000)
	l["transport.record_ns"], l["transport.bytes_per_record"] = ns, bytesPer
	return err
}

// countingConn counts the bytes written to a connection.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// transportReplay streams records through the shard protocol's two
// ends over loopback with no simulation behind them: what one record
// costs on the wire, in time and bytes.
func transportReplay(records int) (nsPerRecord, bytesPerRecord float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	var (
		served  = make(chan error, 1)
		written atomic.Int64
	)
	go func() {
		served <- func() error {
			raw, err := ln.Accept()
			if err != nil {
				return err
			}
			defer raw.Close()
			conn := &countingConn{Conn: raw}
			srv, err := transport.AcceptShard(conn, 1, "", time.Minute)
			if err != nil {
				return err
			}
			task, err := srv.Next()
			if err != nil {
				return err
			}
			before := conn.written.Load()
			for run := task.Lo; run < task.Hi; run++ {
				rec := transport.ShardRecord{Run: run, Decided: true, Rounds: 40 + run%7, OutRangeBits: math.Float64bits(1e-4)}
				if err := srv.WriteRecord(rec); err != nil {
					return err
				}
			}
			written.Store(conn.written.Load() - before)
			return srv.Done(task.Shard, task.Runs())
		}()
	}()
	cl, err := transport.DialShard(ln.Addr().String(), "", time.Minute)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	start := time.Now()
	err = cl.RunShard(transport.ShardTask{Lo: 0, Hi: records, Spec: []byte("name: stub\n")},
		func(transport.ShardRecord) error { return nil }, nil)
	elapsed := time.Since(start)
	cl.Stop()
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return 0, 0, err
	}
	return float64(elapsed) / float64(records), float64(written.Load()) / float64(records), nil
}

// byzCell is one run of the dbac-byz-dense n=51 randomized cell.
func byzCell(seed int64) anondyn.Scenario {
	const n, f = 51, 10
	byz := map[int]anondyn.Strategy{}
	for id := n / 2; len(byz) < f; id++ {
		byz[id] = anondyn.Equivocator(0, 1)
	}
	return anondyn.Scenario{
		N: n, F: f, Eps: 1e-3,
		Algorithm:    anondyn.AlgoDBAC,
		PEndOverride: 40,
		Inputs:       anondyn.RandomInputs(n, seed),
		Adversary:    anondyn.RandomDegree(3, anondyn.ByzDegree(n, f), 0.05, seed),
		Byzantine:    byz,
		MaxRounds:    5000,
		Seed:         seed,
	}
}

func (s *sweep) byzLayers(l layerSet, o options) error {
	base := o.seed * seedStride
	l["anondyn.scenario_compile_us"] = medianOf(200, time.Microsecond, func() { byzCell(base).Compile() }) //nolint:errcheck

	l["harness.dispatch_ns_per_task"] = dispatchNsPerTask(o.procs)

	// DBAC.Deliver in place: the same decorators as the sparse runs, on a
	// faulted dense engine, every round timed.
	tr := newTracer()
	for i := int64(0); i < 20; i++ {
		if _, err := runDecoratedEvery(byzCell(base+i), tr, 1); err != nil {
			return err
		}
	}
	deliver, delivered := tr.total("core.deliver")
	l["core.dbac_deliver_ns_per_edge"] = perEdge(deliver, delivered)

	// The dense edge set as the non-fused gather uses it: reset, fill,
	// list every receiver's in-neighbours.
	const n, rounds = 51, 2000
	fill := anondyn.RandomDegree(3, anondyn.ByzDegree(n, 10), 0.05, base).(adversary.InPlace)
	dst, view := network.NewEdgeSet(n), adversary.SizeView(n)
	buf := make([]int, 0, n)
	var edges int
	var scan time.Duration
	for t := 0; t < rounds; t++ {
		fill.EdgesInto(t, view, dst) // resets dst first
		start := time.Now()
		for v := 0; v < n; v++ {
			buf = dst.InNeighborsInto(v, buf[:0])
			edges += len(buf)
		}
		scan += time.Since(start)
	}
	l["network.dense_scan_ns_per_edge"] = perEdge(scan, edges)

	const calls = 20000
	var strat fault.Strategy = fault.Equivocator{Low: 0, High: 1}
	l["fault.byz_messages_ns_per_round"] = perItem(calls, func() {
		for t := 0; t < calls; t++ {
			strat.Messages(t, n/2, view)
		}
	})
	return nil
}

func (s *sweep) stormLayers(l layerSet, o options) error {
	st := s.sw.Stress
	n := st.Fleet.TotalNodes
	seed := s.sw.BaseSeed
	l["chaos.compile_storm_ms"] = medianOf(20, time.Millisecond, func() { st.CompileStorm(seed) })
	l["chaos.inputs_ms"] = medianOf(20, time.Millisecond, func() { st.Inputs(seed) })
	rows := s.doc.Cells
	l["chaos.eval_us"] = medianOf(20, time.Microsecond, func() { s.sw.Verdicts(rows) })
	l["core.state_mb"] = stateMB(n)

	// One run of the storm cell, built the way spec.applyStress builds it.
	factory, err := anondyn.ParseAdversaryFactory(rows[0].Adversary)
	if err != nil {
		return err
	}
	base := func() anondyn.Adversary { return factory.New(anondyn.Cell{N: n}, seed) }
	storm := st.CompileStorm(seed)
	sc := anondyn.Scenario{
		N: n, Eps: rows[0].Eps, Unchecked: true,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    st.Inputs(seed),
		Adversary: storm.WrapAdversary(base()),
		Crashes:   storm.Crashes,
		Byzantine: storm.Byzantine,
		MaxRounds: st.Rounds,
		Seed:      seed,
	}
	l["anondyn.scenario_compile_us"] = medianOf(5, time.Microsecond, func() { sc.Compile() }) //nolint:errcheck
	cfg, err := decoratedConfig(sc, &stepClock{})
	if err != nil {
		return err
	}
	l["sim.new_engine_ms"] = medianOf(5, time.Millisecond, func() { sim.NewEngine(cfg) }) //nolint:errcheck
	passes := max(200000/n, 1)
	if l["core.reinit_ns_per_node"], err = reinitNsPerNode(n, passes); err != nil {
		return err
	}

	// The storm adversary's filter: the wrapped adversary minus its base
	// over the storm's rounds, per edge the base drew.
	view := adversary.SizeView(n)
	replay := func(a anondyn.Adversary) (time.Duration, int) {
		ip := a.(adversary.InPlace)
		dst := network.NewEdgeSetAuto(n)
		var (
			edges int
			total time.Duration
		)
		for t := 0; t < st.Rounds; t++ {
			start := time.Now()
			ip.EdgesInto(t, view, dst)
			total += time.Since(start)
			edges += dst.Len()
		}
		return total, edges
	}
	bare, drawn := replay(base())
	wrapped, _ := replay(sc.Adversary)
	l["chaos.filter_ns_per_edge"] = perEdge(wrapped-bare, drawn)
	return nil
}
