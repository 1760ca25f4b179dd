package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"sort"
	"strings"

	"anondyn"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

// The specs are frozen copies: edits to examples/specs cannot silently
// change what the benchmark measures.
//
//go:embed specs/*.yaml
var specFS embed.FS

// seedStride spaces the base seeds of two workload seeds further apart
// than any rep's run count, so distinct -seed values share no run seed.
const seedStride = 1_000_003

// sizes are the per-workload input sizes. The defaults are the
// benchmark's; the test suite shrinks them.
type sizes struct {
	smallSeeds int // seeds per cell, sweep-small-*
	byzSeeds   int // seeds per cell, sweep-byz-dense
	stormSeeds int // seeds per cell, storm-10k
	stormNodes int // fleet size, storm-10k (0 = the spec's 10 000)
	sparseN    int // network size, round-*
	er2Rounds  int // MaxRounds, round-sparse-er2
	regRounds  int // MaxRounds, round-sparse-regular
}

var fullSizes = sizes{
	smallSeeds: 10000,
	byzSeeds:   200,
	stormSeeds: 4,
	sparseN:    16385,
	er2Rounds:  128,
	regRounds:  512,
}

// env is what a workload's set-up receives.
type env struct {
	seed  int64
	procs int // simulation threads: GOMAXPROCS = min(nproc, 4)
	sz    sizes
}

// repOut is what one rep produced.
type repOut struct {
	runs   int    // simulated runs attempted
	failed int    // of which failed (see checkRows / checkRound)
	edges  int64  // delivered messages, when the rep's own result reports them
	rounds int    // executed rounds and
	lost   int64  // suppressed messages, likewise
	report []byte // the bytes a user would receive; reps must agree on them
	notes  []string
}

// instance is one set-up workload, ready to run reps.
type instance interface {
	// warm runs a quarter-size rep and discards it: lazy set-up, pool and
	// heap growth are paid before anything is timed.
	warm() error
	// rep runs the workload once, input bytes in → report bytes out,
	// recording spans around the calls into each layer when tr is
	// non-nil.
	rep(tr *tracer) (repOut, error)
	// verify re-derives the rep's output by another public path (or, for
	// single-run workloads, from closed-form counts) and reports the
	// delivered-message total of one rep.
	verify(want []byte) (edges int64, notes []string, err error)
	// layers derives the workload's per-layer metrics after a traced run.
	layers(l layerSet, in layerInput) error
	close()
}

type workload struct {
	name  string
	why   string
	reps  int // default timed reps when neither -reps nor -seconds is given
	setup func(e env) (instance, error)
}

// workloads lists the six benchmark workloads in reporting order.
// BENCHMARK.json repeats the names and reasons; the test suite holds
// the two in step.
var workloads = []workload{
	{
		name: "sweep-small-local", reps: 5,
		why: "40k runs of ~50us through spec.Compile, Grid.Run and the JSON report: harness dispatch, engine recycle, dense er sampling and the BatchStats fold do the work; CSR and transport do none",
		setup: func(e env) (instance, error) {
			return newSweep(e, "er-crash-sweep.yaml", e.sz.smallSeeds, false, nil)
		},
	},
	{
		name: "sweep-small-sharded", reps: 5,
		why: "the same spec bytes and seeds through shard.Run and two loopback workers: adds shard plan, dispatch, stream-merge and transport framing; the report must equal the local one byte for byte",
		setup: func(e env) (instance, error) {
			return newSweep(e, "er-crash-sweep.yaml", e.sz.smallSeeds, true, nil)
		},
	},
	{
		name: "sweep-byz-dense", reps: 5,
		why: "DBAC at f=(n-1)/5 with equivocators on complete and (3,byzdeg)-dynaDegree graphs: dense EdgeSet, live view refresh, per-receiver Byzantine messages, the non-fused deliverRange and DBAC.Deliver",
		setup: func(e env) (instance, error) {
			return newSweep(e, "dbac-byz-dense.yaml", e.sz.byzSeeds, false, nil)
		},
	},
	{
		name: "round-sparse-er2", reps: 7,
		why: "one DAC run at n=16385 on er2:8/n: sparse sampling, CSR build and DAC.Deliver into cold per-node bitsets dominate; harness, spec and shard are idle",
		setup: func(e env) (instance, error) {
			n := e.sz.sparseN
			return &roundRun{
				n: n, rounds: e.sz.er2Rounds, seed: e.seed,
				adversary: func(seed int64) anondyn.Adversary {
					return anondyn.SparseProbabilistic(8/float64(n), seed)
				},
				wantEdges: func(rounds int) (float64, float64) {
					mean := 8 / float64(n) * float64(n) * float64(n-1) * float64(rounds)
					return mean, 6 * math.Sqrt(mean) // six sigma of a binomial count
				},
			}, nil
		},
	},
	{
		name: "round-sparse-regular", reps: 7,
		why: "same n and algorithm on rotating:4: near-free generation and clustered senders, so a sampler change moves er2 and not this, a state change moves er2 more, a round-loop change moves both",
		setup: func(e env) (instance, error) {
			n := e.sz.sparseN
			return &roundRun{
				n: n, rounds: e.sz.regRounds, seed: e.seed,
				adversary: func(int64) anondyn.Adversary { return anondyn.Rotating(4) },
				wantEdges: func(rounds int) (float64, float64) {
					return float64(4 * n * rounds), 0
				},
			}, nil
		},
	},
	{
		name: "storm-10k", reps: 5,
		why: "four 10k-node storm runs through spec.Compile, Grid.Run, verdicts and JSON: per-run engine construction, chaos.CompileStorm, the storm adversary's per-edge filter and the crash path at CSR scale",
		setup: func(e env) (instance, error) {
			return newSweep(e, "cascading-failure.yaml", e.sz.stormSeeds, false,
				[]bool{false, true, false}) // converged FAIL, agreement PASS, survivors FAIL
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// renderSpec turns a frozen spec into the workload's input bytes: the
// workload seed becomes base_seed (and stress.seed), nodes > 0 shrinks
// the storm fleet. The program under test receives only these bytes.
func renderSpec(file string, seed int64, nodes int) ([]byte, error) {
	raw, err := specFS.ReadFile("specs/" + file)
	if err != nil {
		return nil, err
	}
	text := string(raw)
	sub := func(old, new string) error {
		if strings.Count(text, old) != 1 {
			return fmt.Errorf("specs/%s: want exactly one %q line", file, strings.TrimSpace(old))
		}
		text = strings.Replace(text, old, new, 1)
		return nil
	}
	if err := sub("\nbase_seed: 1\n", fmt.Sprintf("\nbase_seed: %d\n", seed*seedStride)); err != nil {
		return nil, err
	}
	if strings.Contains(text, "\nstress:\n") {
		if err := sub("\n  seed: 1\n", fmt.Sprintf("\n  seed: %d\n", seed)); err != nil {
			return nil, err
		}
		if nodes > 0 {
			if err := sub("total_nodes: 10000\n", fmt.Sprintf("total_nodes: %d\n", nodes)); err != nil {
				return nil, err
			}
			// Keep the cascade lethal at the shrunken size.
			if err := sub("count: 500\n", fmt.Sprintf("count: %d\n", max(nodes/20, 1))); err != nil {
				return nil, err
			}
		}
	}
	return []byte(text), nil
}

// sweep is a spec-driven workload: spec bytes → Grid.Run (or shard.Run)
// → JSON report bytes.
type sweep struct {
	data     []byte
	seeds    int
	procs    int
	verdicts []bool // expected storm verdicts, nil for plain sweeps

	workers []*shard.Worker // sharded only
	served  chan error
	last    *shard.Result // the last sharded rep's plan and balance

	doc *report.Sweep // the last rep's report document
	sw  *spec.Sweep   // and the parsed spec behind it
}

func newSweep(e env, file string, seeds int, sharded bool, verdicts []bool) (*sweep, error) {
	data, err := renderSpec(file, e.seed, e.sz.stormNodes)
	if err != nil {
		return nil, err
	}
	s := &sweep{data: data, seeds: seeds, procs: e.procs, verdicts: verdicts}
	if !sharded {
		return s, nil
	}
	// Two in-process loopback workers sharing the simulation threads, so
	// the sharded run gets no more of them than the local pool.
	s.served = make(chan error, 2)
	for i := 0; i < 2; i++ {
		w, err := shard.NewWorker("127.0.0.1:0", shard.WorkerOptions{Workers: max(1, e.procs/2)})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		go func() { s.served <- w.Serve() }()
	}
	return s, nil
}

func (s *sweep) close() {
	for _, w := range s.workers {
		w.Close()
	}
	for range s.workers {
		<-s.served
	}
	s.workers = nil
}

func (s *sweep) addrs() []string {
	addrs := make([]string, len(s.workers))
	for i, w := range s.workers {
		addrs[i] = w.Addr()
	}
	return addrs
}

func (s *sweep) warm() error {
	_, err := s.run(nil, max(s.seeds/4, 1))
	return err
}

func (s *sweep) rep(tr *tracer) (repOut, error) { return s.run(tr, s.seeds) }

func (s *sweep) run(tr *tracer, seeds int) (repOut, error) {
	var (
		sw   *spec.Sweep
		rows []anondyn.CellResult
		err  error
	)
	root := tr.begin("workload.rep")
	defer tr.end(root)
	if s.workers != nil {
		id := tr.begin("shard.run")
		s.last, err = shard.Run(s.data, shard.Options{Workers: s.addrs(), SeedsPerCell: seeds})
		tr.end(id)
		if err != nil {
			return repOut{}, err
		}
		sw, rows = s.last.Sweep, s.last.Rows
	} else {
		id := tr.begin("spec.compile")
		var grid anondyn.Grid
		sw, grid, err = spec.Compile(s.data, seeds)
		tr.end(id)
		if err != nil {
			return repOut{}, err
		}
		id = tr.begin("anondyn.grid_run")
		rows, err = grid.Run(anondyn.BatchOptions{Workers: s.procs})
		tr.end(id)
		if err != nil {
			return repOut{}, err
		}
	}
	out := repOut{}
	id := tr.begin("chaos.eval")
	doc := s.document(sw, rows)
	tr.end(id)
	s.doc, s.sw = doc, sw
	id = tr.begin("report.json")
	var buf bytes.Buffer
	err = doc.WriteJSON(&buf)
	tr.end(id)
	if err != nil {
		return repOut{}, err
	}
	out.report = buf.Bytes()
	out.runs, out.failed, out.notes = s.checkRows(rows, doc)
	return out, nil
}

// document assembles the report the CLIs write. Workers is left zero:
// it records the pool size (dynabench) or the worker-process count
// (dynagrid), so it would make the bytes depend on the host and on the
// path taken; everything else is the determinism contract.
func (s *sweep) document(sw *spec.Sweep, rows []anondyn.CellResult) *report.Sweep {
	return &report.Sweep{
		Spec:         sw.Name,
		SeedsPerCell: max(sw.SeedsPerCell, 1),
		BaseSeed:     sw.BaseSeed,
		Cells:        rows,
		Title:        sw.RunTitle("", len(rows)),
		Verdicts:     sw.Verdicts(rows),
		Storm:        sw.StormTimeline(),
	}
}

// checkRows counts a rep's failed runs from its aggregate rows: every
// ε-agreement or validity violation, and every undecided run in a cell
// where the paper guarantees termination (the complete graph and the
// randomized (T,byzdeg)-dynaDegree graph; er(p) terminates only with
// probability). A storm whose verdicts differ from the spec's designed
// outcome fails all of its runs.
func (s *sweep) checkRows(rows []anondyn.CellResult, doc *report.Sweep) (runs, failed int, notes []string) {
	for _, r := range rows {
		runs += r.Runs
		failed += r.Violations
		if r.Violations > 0 {
			notes = append(notes, fmt.Sprintf("cell n=%d %s: %d violations", r.N, r.Adversary, r.Violations))
		}
		guaranteed := r.Adversary == "complete" || strings.Contains(r.Adversary, ",byzdeg") || strings.Contains(r.Adversary, ",crashdeg")
		if guaranteed && r.Decided < r.Runs {
			failed += r.Runs - r.Decided
			notes = append(notes, fmt.Sprintf("cell n=%d %s: %d of %d runs undecided", r.N, r.Adversary, r.Runs-r.Decided, r.Runs))
		}
	}
	if s.verdicts != nil {
		ok := len(doc.Verdicts) == len(s.verdicts)
		for i := 0; ok && i < len(s.verdicts); i++ {
			ok = doc.Verdicts[i].Pass == s.verdicts[i]
		}
		if !ok {
			failed = runs
			notes = append(notes, fmt.Sprintf("storm verdicts %+v differ from the designed outcome", doc.Verdicts))
		}
	}
	return runs, failed, notes
}

// verify runs the sweep through Grid.RunEach — the per-run form, which
// the timed reps do not take — folding every Result into the same
// BatchStats while checking it on its own and summing delivered
// messages. The report it yields must equal the reps' bytes; for the
// sharded workload that is the sharded ≡ local contract.
func (s *sweep) verify(want []byte) (int64, []string, error) {
	sw, grid, err := spec.Compile(s.data, s.seeds)
	if err != nil {
		return 0, nil, err
	}
	cells := grid.Cells()
	stats := make([]*anondyn.BatchStats, len(cells))
	for i, c := range cells {
		stats[i] = &anondyn.BatchStats{Eps: c.Eps}
	}
	var (
		edges int64
		notes []string
	)
	err = grid.RunEach(anondyn.BatchOptions{Workers: s.procs},
		func(c anondyn.Cell, cell, run int, seed int64, res *anondyn.Result) error {
			edges += int64(res.MessagesDelivered)
			if res.Decided && !(res.Valid() && res.EpsAgreement(c.Eps)) && len(notes) < 8 {
				notes = append(notes, fmt.Sprintf("run %d (cell %d, seed %d): decided outside validity or eps-agreement", run, cell, seed))
			}
			return stats[cell].Consume(run, seed, res)
		})
	if err != nil {
		return 0, nil, err
	}
	rows := make([]anondyn.CellResult, len(cells))
	for i, c := range cells {
		rows[i] = anondyn.CellResult{
			N: c.N, F: c.F, Eps: c.Eps,
			Algorithm: c.Algorithm.String(), Adversary: c.Adversary.Name, Variant: c.Variant.Name,
			BatchReport: stats[i].Report(),
		}
	}
	var buf bytes.Buffer
	if err := s.document(sw, rows).WriteJSON(&buf); err != nil {
		return 0, nil, err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		what := "Grid.Run"
		if s.workers != nil {
			what = "shard.Run"
		}
		notes = append(notes, fmt.Sprintf("report from %s differs from the per-run local fold (%s vs %s)", what, digest(want), digest(buf.Bytes())))
	}
	return edges, notes, nil
}

// roundRun is a single-scenario workload: one large sparse DAC run per
// rep, as a Scenario literal.
type roundRun struct {
	n, rounds int
	seed      int64
	adversary func(seed int64) anondyn.Adversary
	// wantEdges gives the delivered-message count the graph family
	// implies for a run of the given length, and the slack allowed.
	wantEdges func(rounds int) (mean, slack float64)
}

func (r *roundRun) close() {}

func (r *roundRun) scenario(rounds int) anondyn.Scenario {
	return anondyn.Scenario{
		N: r.n, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(r.n),
		Adversary: r.adversary(r.seed),
		MaxRounds: rounds,
		Seed:      r.seed,
	}
}

func (r *roundRun) warm() error {
	_, err := r.scenario(max(r.rounds/4, 1)).Run()
	return err
}

func (r *roundRun) rep(tr *tracer) (repOut, error) {
	root := tr.begin("workload.rep")
	defer tr.end(root)
	var (
		res *anondyn.Result
		err error
	)
	if tr != nil {
		res, err = runDecorated(r.scenario(r.rounds), tr)
	} else {
		res, err = r.scenario(r.rounds).Run()
	}
	if err != nil {
		return repOut{}, err
	}
	out := repOut{
		runs: 1, report: canonicalResult(res),
		edges: int64(res.MessagesDelivered), rounds: res.Rounds, lost: int64(res.MessagesLost),
	}
	out.notes = r.checkRound(res)
	if len(out.notes) > 0 {
		out.failed = 1
	}
	return out, nil
}

// checkRound checks the run against what its inputs imply without
// consulting another run: the delivered count the graph family fixes
// (exactly d·n per round on the regular graph, p·n(n−1) within six
// sigma on er2), every potential message either delivered or lost, and
// — should the run decide — validity and ε-agreement.
func (r *roundRun) checkRound(res *anondyn.Result) []string {
	var notes []string
	mean, slack := r.wantEdges(res.Rounds)
	if d := float64(res.MessagesDelivered) - mean; d > slack || d < -slack {
		notes = append(notes, fmt.Sprintf("delivered %d messages in %d rounds, want %.0f±%.0f", res.MessagesDelivered, res.Rounds, mean, slack))
	}
	if all := r.n * (r.n - 1) * res.Rounds; res.MessagesDelivered+res.MessagesLost != all {
		notes = append(notes, fmt.Sprintf("delivered %d + lost %d != %d potential messages", res.MessagesDelivered, res.MessagesLost, all))
	}
	if !res.Decided && res.Rounds != r.rounds {
		notes = append(notes, fmt.Sprintf("stopped undecided after %d of %d rounds", res.Rounds, r.rounds))
	}
	if res.Decided && !(res.Valid() && res.EpsAgreement(1e-3)) {
		notes = append(notes, "decided outside validity or eps-agreement")
	}
	return notes
}

func (r *roundRun) verify([]byte) (int64, []string, error) { return 0, nil, nil }

// canonicalResult renders what sim_digest covers for a single run:
// rounds, delivered, lost and the outputs in node order.
func canonicalResult(res *anondyn.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "rounds=%d decided=%t delivered=%d lost=%d\n", res.Rounds, res.Decided, res.MessagesDelivered, res.MessagesLost)
	nodes := make([]int, 0, len(res.Outputs))
	for node := range res.Outputs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		fmt.Fprintf(&b, "%d %x@%d\n", node, math.Float64bits(res.Outputs[node]), res.DecideRound[node])
	}
	return b.Bytes()
}
