package sim

import (
	"runtime"
	"sync/atomic"

	"anondyn/internal/core"
	"anondyn/internal/network"
)

// The two-stage round pipeline behind Run and RunRounds. Under an
// oblivious in-place adversary E(t+1) depends on nothing round t does,
// so while the run goroutine plays round t (broadcasts, gather,
// DeliverAll, lost count, close) a build goroutine writes E(t+1) into
// the engine's spare edge set, prunes it of dead nodes' links (see
// Engine.prune) and forces its receiver-major view. The
// adversary sees the same EdgesInto calls in the same order as a
// sequential run — each round once, t strictly increasing, on one
// goroutine at a time — so results are byte-identical; only which core
// generates a round changes. Engine.Run lists when it engages.
//
// Once it has built E(t+1), the build goroutine helps deliver round t
// when round t is a clean CSR round (deliverCSR): both goroutines claim
// csrChunk words of the round's receiver set at a time from one atomic
// cursor and deliver them through their own Population.DeliverCSR part,
// and the run goroutine waits for every claimed chunk — that is, for
// the build stage's reply — before it ends the round. A receiver's
// round touches only its own state, so which goroutine delivers it
// changes nothing either.

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
	req  chan buildReq  // closed by stop
	help chan *csrRound // one per request, sent by the round in flight: the CSR round to help deliver, or nil; closed by stop
	done chan any       // one reply per request, once the build and any help are done: nil, or the panic either raised; closed when the goroutine exits

	// The run goroutine's side of the request in flight: whether it has
	// sent its help and taken the reply.
	posted, replied bool
}

// newBuildStage starts the build goroutine of e's run. Of the engine it
// reads only what no round writes (the adversary, the view it passes
// on, the crash schedule) and the round it is sent to help with, and
// writes only aheadMask, prunedAhead and helped, which the run
// goroutine reads after the reply, and the population's nodes and the
// decided words of the chunks it claims.
func newBuildStage(e *Engine) *buildStage {
	s := &buildStage{req: make(chan buildReq), help: make(chan *csrRound, 1), done: make(chan any, 1)}
	go s.serve(e)
	return s
}

func (s *buildStage) serve(e *Engine) {
	defer close(s.done)
	for r := range s.req {
		p := e.build(r)
		if round := <-s.help; p == nil && round != nil {
			p = e.help(round)
		}
		s.done <- p
	}
}

// request asks the stage to build r.
func (s *buildStage) request(r buildReq) {
	s.posted, s.replied = false, false
	s.req <- r
}

// post hands the stage the round in flight's CSR delivery to join once
// it has built; the round then delivers its own part and waits.
func (s *buildStage) post(r *csrRound) {
	s.help <- r // buffered: never blocks
	s.posted = true
}

// wait takes the stage's reply to the request in flight, posting that
// there is nothing to help with first if the round posted nothing, and
// re-raises a panic from the build or the help. It returns at once if
// the round already took the reply.
func (s *buildStage) wait() {
	if s.replied {
		return
	}
	if !s.posted {
		s.post(nil)
	}
	s.replied = true
	if p := <-s.done; p != nil {
		panic(p)
	}
}

// csrChunk is how many words of a CSR round's receiver set one claim
// takes: 256 receivers, 32 of a DAC population's 8-node tiles, so the
// two goroutines never share a tile.
const csrChunk = 4

// csrRound is a clean CSR round as deliverCSR hands it to
// Population.DeliverCSR, delivered in chunks of csrChunk words of recv
// claimed from next.
type csrRound struct {
	pop         core.Population
	recv        []uint64
	starts, ids []int32
	msgs        []core.Message
	decided     []uint64
	next        atomic.Int64 // the first word not yet claimed
}

// deliver claims and delivers chunks through DeliverCSR's part until
// none is left, and returns how many it delivered.
func (r *csrRound) deliver(part int) (chunks int) {
	for {
		lo := int(r.next.Add(csrChunk)) - csrChunk
		if lo >= len(r.recv) {
			return chunks
		}
		r.pop.DeliverCSR(part, lo, min(lo+csrChunk, len(r.recv)), r.recv, r.starts, r.ids, r.msgs, r.decided)
		chunks++
	}
}

// help is the build stage's part of a CSR round; a panic comes back as
// the reply, for the run goroutine to re-raise.
func (e *Engine) help(r *csrRound) (panicked any) {
	defer func() { panicked = recover() }()
	e.helped += r.deliver(1)
	return nil
}

// build renders one round ahead and, when nothing must see it whole,
// prunes it; a panic comes back as the reply, for the run goroutine to
// re-raise.
func (e *Engine) build(r buildReq) (panicked any) {
	defer func() { panicked = recover() }()
	e.inPlace.EdgesInto(r.t, e.view, r.dst)
	e.prunedAhead = e.pruneAhead && e.prune(&e.aheadMask, r.t, r.dst)
	if r.dst.IsSparse() { // FillComplete may have turned it dense
		r.dst.InCSR()
	}
	return nil
}

// stop ends the stage and waits until its goroutine has closed done,
// its last act before it returns. A run stops its stage on every way
// out, a panic from the round included — it then waits out the build
// and any help in flight — so no build or delivery ever runs while the
// engine is between runs (Reset, Step and a later run touch the spare
// set, the adversary and the population freely).
func (s *buildStage) stop() {
	close(s.req)
	close(s.help)
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
			e.helper = nil // a panic out of the round skipped the clear below
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
				stage = newBuildStage(e)
			}
			if e.spare == nil {
				e.spare = network.NewEdgeSetSparse(e.cfg.N)
			}
			stage.request(buildReq{t: t + 1, dst: e.spare}) // free: roundEdges swapped any pending set in
			e.helper = stage
		}
		e.playRound(t, edges)
		if ahead {
			e.helper = nil
			stage.wait()
			e.pending = true
		}
	}
}
