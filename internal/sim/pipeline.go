package sim

import (
	"runtime"
	"sync/atomic"

	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// The two-stage round pipeline behind Run and RunRounds. Under an
// oblivious in-place adversary E(t+1) depends on nothing round t does,
// so while the run goroutine plays round t (broadcasts, gather,
// DeliverAll, lost count, close) a build goroutine writes E(t+1) into
// the engine's spare edge set and forces its receiver-major view. The
// adversary sees the same EdgesInto calls in the same order as a
// sequential run — each round once, t strictly increasing, on one
// goroutine at a time — so results are byte-identical; only which core
// generates a round changes. Engine.Run lists when it engages.

// pipelineRuns counts, process-wide, the runs currently inside Run or
// RunRounds with a configuration that can pipeline. A run builds ahead
// only while 2·pipelineRuns ≤ GOMAXPROCS, checked once per round: each
// pipelined run wants two cores, so a lone run takes the idle one while
// a batch that already keeps every core busy stays sequential, and its
// warm-up and tail runs pick the spare cores up as they free.
var pipelineRuns atomic.Int32

// buildReq asks the build stage for E(t), written into dst.
type buildReq struct {
	t   int
	dst *network.EdgeSet
}

// buildStage is the build goroutine of one pipelined run.
type buildStage struct {
	req  chan buildReq // closed by stop
	done chan any      // one reply per request: nil, or the panic the build raised; closed when the goroutine exits
}

func newBuildStage(adv adversary.InPlace, view adversary.View) *buildStage {
	s := &buildStage{req: make(chan buildReq), done: make(chan any, 1)}
	go s.serve(adv, view)
	return s
}

func (s *buildStage) serve(adv adversary.InPlace, view adversary.View) {
	defer close(s.done)
	for r := range s.req {
		s.done <- build(adv, view, r)
	}
}

// build renders one round ahead; a panic comes back as the reply, for
// the run goroutine to re-raise.
func build(adv adversary.InPlace, view adversary.View, r buildReq) (panicked any) {
	defer func() { panicked = recover() }()
	adv.EdgesInto(r.t, view, r.dst)
	if r.dst.IsSparse() { // FillComplete may have turned it dense
		r.dst.InCSR()
	}
	return nil
}

// stop ends the stage and waits for its goroutine to exit. A run stops
// its stage on every way out, a panic from the round included — it then
// waits out the build in flight — so no build ever runs while the
// engine is between runs (Reset, Step and a later run touch the spare
// set and the adversary freely).
func (s *buildStage) stop() {
	close(s.req)
	for range s.done {
	}
}

// run executes rounds until round end or, when untilDecided, until
// every fault-free node has decided. Each round builds the next one
// ahead when the configuration allows it (Reset decides: see
// Engine.pipelines) and a core is idle.
func (e *Engine) run(end int, untilDecided bool) {
	var (
		stage *buildStage // started on the first round built ahead
		procs int
	)
	if e.pipelines {
		pipelineRuns.Add(1)
		defer pipelineRuns.Add(-1)
		defer func() {
			if stage != nil {
				stage.stop()
			}
		}()
		procs = runtime.GOMAXPROCS(0)
	}
	for e.round < end && !(untilDecided && e.allDecided()) {
		t := e.round
		e.refreshView(t)
		edges := e.roundEdges(t)
		ahead := e.pipelines && t+1 < end && 2*int(pipelineRuns.Load()) <= procs
		if ahead {
			if stage == nil {
				stage = newBuildStage(e.inPlace, e.view)
			}
			if e.spare == nil {
				e.spare = network.NewEdgeSetSparse(e.cfg.N)
			}
			stage.req <- buildReq{t: t + 1, dst: e.spare} // free: roundEdges swapped any pending set in
		}
		e.playRound(t, edges)
		if ahead {
			if p := <-stage.done; p != nil {
				panic(p)
			}
			e.pending = true
		}
	}
}
