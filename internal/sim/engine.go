package sim

import (
	"math/bits"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/trace"
	"anondyn/internal/wire"
)

// Engine is the deterministic round executor. One instance runs one
// execution; it is not safe for concurrent use. Engines are recyclable:
// Reset reconfigures an instance for a fresh execution while reusing
// every allocation of the previous one, which is what makes Monte-Carlo
// batches cheap (see CompiledScenario and the harness worker pool).
//
// All per-node bookkeeping is dense (slices indexed by node ID, sized
// cfg.N) rather than map-based, and the per-round edge set is written
// into an engine-owned scratch set whenever the adversary implements
// adversary.InPlace — so a steady-state round allocates nothing at all
// (asserted by TestSteadyStateRoundAllocs and the bench suite). Maps
// appear only in the exported Result, materialized once per run.
type Engine struct {
	cfg       Config
	maxRounds int
	ports     network.Ports
	ownPorts  bool // ports were engine-built identity numberings (reusable)

	round int
	view  *execView

	// dense per-node execution state, sized cfg.N
	isByz       []bool
	byz         []byzNode // per node: its Byzantine strategy and this round's messages; nil until a run has Byzantine nodes
	decided     []bool
	outputs     []float64
	decideRound []int
	inputs      []float64
	faultFree   []int
	crashRound  []int         // crash round, or neverCrashes — no map on the hot path
	crashInfo   []fault.Crash // partial-delivery detail for crash-scheduled nodes

	// scratch reused across rounds
	broadcasts  []core.Message
	sends       []bool            // node sends in round t: Byzantine, or alive at its start (t ≤ crash round)
	bcastSize   []int             // wire.Size per broadcast, computed once per round
	byzStoreBuf []core.Message    // flat backing of every byzNode.store, grown in Reset, recycled across runs
	byzOutBuf   []*core.Message   // flat backing of every byzNode.out
	deliveries  []core.Delivery   // the receiver's gather buffer, n entries
	inbuf       []int             // in-neighbor list behind gatherInNeighbors, capacity n
	edges       *network.EdgeSet  // engine-owned E(t) for InPlace adversaries
	inPlace     adversary.InPlace // non-nil when the adversary has the fast path
	hooks       Hooks             // cfg.Hooks, cached
	roundObs    RoundObserver     // the effective Observer's optional round hook, cached
	needSize    bool              // any consumer of wire sizes configured
	hasCap      bool              // any per-link byte budget configured

	// two-stage pipeline state (see pipeline.go)
	pipelines   bool             // Run/RunRounds may build E(t+1) on a second goroutine
	spare       *network.EdgeSet // the build stage's target; swapped with edges when consumed
	pending     bool             // spare holds E(round), built ahead by the last pipelined round
	pruneAhead  bool             // the build stage prunes what it builds: no Recorder, no KeepTrace
	prunedAhead bool             // the pending set was pruned; written by the build stage before its reply

	// Crash-aware pruning (see prune): pruned says E(round) is a CSR set
	// holding only links from round senders to nodes alive through the
	// round; pruneDue says the run goroutine rendered E(round) itself and
	// prunes it after openRound. Each goroutine that prunes keeps its own
	// masks: runMask the run goroutine's, aheadMask the build stage's.
	pruned    bool
	pruneDue  bool
	runMask   linkMask
	aheadMask linkMask

	// dense RoundObserver scratch, reused across rounds
	rvValues  []float64
	rvRunning []bool

	// lazy-view bookkeeping: viewSkip means nothing in this configuration
	// ever reads the view's snapshots (oblivious adversary, no Byzantine
	// strategies), so the per-round state capture is skipped entirely.
	// Otherwise the view is maintained incrementally — a full refresh on
	// the first Step, then only the snapshots that changed: each processed
	// node re-snapped at the end of its round, crash flags flipped from
	// the precomputed schedule. Both replace the former O(n) eager
	// refresh per round, the last per-round cost that scaled with n
	// rather than with the edge count.
	viewSkip   bool
	viewInit   bool
	crashSched []int // nodes with a scheduled crash, for flag flips

	// allIdentity (every numbering is the identity bijection, checked
	// once per Reset) with no wire-size consumer (needSize: no link caps,
	// no bandwidth accounting) arms the direct gather: it scans the
	// receiver's in-row (bitmap words or CSR row) straight into the
	// delivery buffer, skipping the intermediate neighbor list, the port
	// map and outgoing()'s size and cap work. An in-neighbor delivers its
	// broadcast unless it has crashed, or crashes in this round with a
	// DeliverTo list that leaves the receiver out; a Byzantine one
	// (hasByz: the run has some) delivers its message for the receiver,
	// if any.
	allIdentity bool
	hasByz      bool

	// Per-round sender census, taken by openRound: how many nodes send
	// (the lost count's "alive sender" side), and whether some sender
	// crashes this round with a DeliverTo list (only then does a gather
	// consult AllowsFinalDelivery).
	senders int
	partial bool

	// trackPhases is false when neither an Observer nor a Recorder is
	// configured: phase transitions then have no consumer, and the
	// delivery loop skips the two Phase() probes per delivery — at
	// n=1025/p=8/n that is ~16k interface calls per round feeding a no-op.
	trackPhases bool

	result Result // counters accumulate here; finish() materializes maps
}

// byzNode is one Byzantine node's sending state.
type byzNode struct {
	strat fault.Strategy
	store []core.Message  // engine-owned storage the strategy fills
	out   []*core.Message // this round's message per receiver (nil entry: silent)
}

// NewEngine validates the configuration and prepares an execution.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset reconfigures the engine to execute cfg from round zero,
// recycling the previous execution's allocations whenever the network
// size matches. A Reset engine is indistinguishable from a fresh
// NewEngine(cfg) one — the recycle tests assert byte-identical Results —
// so a batch worker can run thousands of seeds on one instance.
func (e *Engine) Reset(cfg Config) error {
	maxRounds, err := cfg.validate()
	if err != nil {
		return err
	}
	n := cfg.N
	sameN := e.broadcasts != nil && len(e.broadcasts) == n
	e.cfg = cfg
	e.maxRounds = maxRounds
	e.round = 0
	e.pending = false

	switch {
	case cfg.Ports != nil:
		e.ports = cfg.Ports
		e.ownPorts = false
	case sameN && e.ownPorts:
		// keep the identity numberings built for the previous run
	default:
		e.ports = network.IdentityPorts(n)
		e.ownPorts = true
	}

	if sameN {
		for i := 0; i < n; i++ {
			e.isByz[i] = false
			e.decided[i] = false
			e.outputs[i] = 0
			e.decideRound[i] = 0
			e.inputs[i] = 0
			e.sends[i] = false
			e.bcastSize[i] = 0
		}
		e.crashSched = e.crashSched[:0]
		clear(e.byz) // drop last run's slices: nothing stale survives
	} else {
		e.isByz = make([]bool, n)
		e.byz = nil
		e.decided = make([]bool, n)
		e.outputs = make([]float64, n)
		e.decideRound = make([]int, n)
		e.inputs = make([]float64, n)
		e.broadcasts = make([]core.Message, n)
		e.sends = make([]bool, n)
		e.bcastSize = make([]int, n)
		e.crashRound = make([]int, n)
		e.crashInfo = make([]fault.Crash, n)
		// Max in-degree is n−1: buffers sized up front so a later
		// record-degree round can never regrow them (steady rounds stay
		// at 0 allocs).
		e.deliveries = make([]core.Delivery, n)
		e.inbuf = make([]int, 0, n)
		e.crashSched = nil
		e.rvValues = make([]float64, n)
		e.rvRunning = make([]bool, n)
		e.runMask, e.aheadMask = linkMask{}, linkMask{}
		e.edges = nil
		e.spare = nil
		e.view = nil
	}
	// Byzantine senders' state exists only in runs that have them; a
	// fault-free engine carries none of it. Strategies fill engine-owned
	// storage: one n-message block and one n-pointer block per Byzantine
	// node, carved from two flat buffers that grow here and never in a
	// round, and that a recycled engine keeps. The pointers start nil, as
	// on a fresh engine.
	if len(cfg.Byzantine) > 0 && e.byz == nil {
		e.byz = make([]byzNode, n)
	}
	if need := len(cfg.Byzantine) * n; cap(e.byzStoreBuf) < need {
		e.byzStoreBuf = make([]core.Message, need)
		e.byzOutBuf = make([]*core.Message, need)
	} else {
		clear(e.byzOutBuf[:need])
	}
	off := 0
	for i, strat := range cfg.Byzantine {
		e.isByz[i] = true
		b := &e.byz[i]
		b.strat = strat
		b.store = e.byzStoreBuf[off : off+n : off+n]
		b.out = e.byzOutBuf[off : off+n : off+n]
		off += n
	}
	fillCrashState(e.crashRound, e.crashInfo, cfg.Crashes)
	for i := 0; i < n; i++ {
		if e.crashRound[i] != neverCrashes {
			e.crashSched = append(e.crashSched, i)
		}
	}
	e.viewSkip = adversary.IsOblivious(cfg.Adversary) && len(cfg.Byzantine) == 0
	e.viewInit = false
	e.hasByz = len(cfg.Byzantine) > 0
	// The Metrics sink deliberately does not join this gate: metrics tap
	// the round from outside and must never change path selection, so a
	// metrics-enabled run takes bit-for-bit the same route as a disabled
	// one (pinned by the parity property tests).
	e.hooks = cfg.Hooks
	e.trackPhases = e.hooks.Observer != nil || e.hooks.Recorder != nil
	e.allIdentity = true
	for _, numbering := range e.ports {
		if !numbering.IsIdentity() {
			e.allIdentity = false
			break
		}
	}
	wantSparse := cfg.ForceCSR || n >= network.SparseThreshold
	if ip, ok := cfg.Adversary.(adversary.InPlace); ok {
		e.inPlace = ip
		// The engine-owned scratch follows the density regime: CSR past
		// the size threshold (or when forced), the bit-matrix below it. A
		// recycled scratch in the wrong representation — including one a
		// FillComplete converted to dense mid-run — is rebuilt; the spare
		// set is CSR-only and is dropped instead.
		if e.edges == nil || e.edges.IsSparse() != wantSparse {
			if wantSparse {
				e.edges = network.NewEdgeSetSparse(n)
			} else {
				e.edges = network.NewEdgeSet(n)
			}
		}
		if e.spare != nil && !e.spare.IsSparse() {
			e.spare = nil
		}
	} else {
		e.inPlace = nil
	}
	// A CSR round of a run with crashes prunes the links of crashed
	// nodes (see prune). Only such runs make the masks; a recycled
	// engine keeps them.
	if e.inPlace != nil && wantSparse && len(e.crashSched) > 0 && e.runMask.roles == nil {
		roles := make([]uint8, 2*n)
		e.runMask.roles, e.aheadMask.roles = roles[:n:n], roles[n:]
	}
	e.runMask.until, e.aheadMask.until = 0, 0 // a new schedule: rebuild at the first prune
	// Run and RunRounds build E(t+1) ahead on a second goroutine when
	// nothing the round does can influence it — an oblivious in-place
	// adversary and no Byzantine strategy (viewSkip: nothing reads the
	// view) — and the round is CSR-sized.
	e.pipelines = e.inPlace != nil && e.viewSkip && wantSparse
	// The round prunes E(t) after openRound has shown it to the edge
	// observers; a set built ahead can be pruned before that only when
	// there are none.
	e.pruneAhead = cfg.Hooks.Recorder == nil && !cfg.KeepTrace
	e.roundObs, _ = e.hooks.Observer.(RoundObserver)
	e.needSize = cfg.AccountBandwidth || cfg.MaxMessageBytes > 0 || cfg.LinkBandwidth != nil
	e.hasCap = cfg.MaxMessageBytes > 0 || cfg.LinkBandwidth != nil

	if e.view == nil {
		e.view = newExecView(&e.cfg, e.isByz)
	} else {
		e.view.reset(&e.cfg, e.isByz)
	}

	e.faultFree = cfg.FaultFree()
	e.result = Result{}
	for i, p := range cfg.Procs {
		if p != nil {
			e.inputs[i] = p.Value()
		}
	}
	// A degenerate network (or pEnd = 0) can decide at construction.
	for i, p := range cfg.Procs {
		if p != nil {
			e.noteDecision(i, p, 0)
		}
	}
	return nil
}

// Run executes rounds until every fault-free node has decided or the
// round budget is exhausted, and returns the result. The Result is
// detached from the engine: a later Reset or further rounds never
// mutate it, so batch sinks may retain it while the engine is recycled.
//
// Run generates each next round's graph on a second goroutine while the
// current round delivers (see pipeline.go) whenever all of these hold:
// the adversary is oblivious and implements adversary.InPlace, no node
// is Byzantine, the edge scratch is CSR (N ≥ network.SparseThreshold,
// or ForceCSR), and a core is idle (2 × such runs ≤ GOMAXPROCS,
// process-wide). The adversary sees the same calls in the same order
// either way, so no result changes. That goroutine also prunes the
// graph it built of the links dead nodes cannot use (see prune) before
// it forces the receiver-major view, unless a Recorder or KeepTrace
// must see the graph whole: the crash schedule is static, so it needs
// nothing from the round in flight. The goroutine has done its last
// work when Run returns and exits right after. The adversary may then
// have rendered one round past the decision round: the engine keeps that
// graph for a later Step or RunRounds.
func (e *Engine) Run() *Result {
	e.run(e.maxRounds, true)
	return e.finish()
}

// RunRounds executes exactly k further rounds (regardless of decisions)
// and returns the running result. Useful for convergence measurements
// that outlive the first decision. Each call returns a fresh snapshot;
// earlier snapshots are not updated by later rounds. It pipelines like
// Run but never generates past its k-th round.
func (e *Engine) RunRounds(k int) *Result {
	e.run(e.round+k, false)
	return e.finish()
}

// finish materializes the exported Result from the dense execution
// state: one map build per run, none per round.
func (e *Engine) finish() *Result {
	n := e.cfg.N
	res := e.result // counters and trace by value
	res.Rounds = e.round
	res.Decided = e.allDecided()
	res.FaultFree = e.faultFree
	res.Outputs = make(map[int]float64, n)
	res.DecideRound = make(map[int]int, n)
	res.Inputs = make(map[int]float64, n)
	for i := 0; i < n; i++ {
		if e.decided[i] {
			res.Outputs[i] = e.outputs[i]
			res.DecideRound[i] = e.decideRound[i]
		}
		if e.cfg.Procs[i] != nil {
			res.Inputs[i] = e.inputs[i]
		}
	}
	return &res
}

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// Proc exposes a node's Process for inspection (nil for Byzantine IDs).
func (e *Engine) Proc(i int) core.Process { return e.cfg.Procs[i] }

// roundEdges resolves E(t): the engine-owned scratch set for InPlace
// adversaries — the spare set swapped in when a pipelined round already
// built E(t) there — and the adversary's own allocation otherwise.
func (e *Engine) roundEdges(t int) *network.EdgeSet {
	e.pruned, e.pruneDue = false, false
	if e.inPlace == nil {
		return e.cfg.Adversary.Edges(t, e.view)
	}
	if e.pending {
		e.edges, e.spare = e.spare, e.edges
		e.pending = false
		e.pruned = e.prunedAhead
	} else {
		e.inPlace.EdgesInto(t, e.view, e.edges)
		e.pruneDue = true
	}
	return e.edges
}

// linkMask is round t's link roles, one network.Sends|network.Receives
// byte per node, the roles EdgeSet.KeepBetween takes: a node sends
// while it is alive at the round's start (t ≤ crash round) and receives
// while it is alive through the round (t < crash round). The crash
// schedule is static, so the roles hold from one crash round to the
// next: maskAt rebuilds them only when a round reaches until. Rounds
// only move forward within a run, and Reset zeroes until between runs.
type linkMask struct {
	roles []uint8
	until int  // the first round the roles do not hold for
	all   bool // every node sends and receives: nothing to prune
}

// maskAt brings m to round t.
func (e *Engine) maskAt(m *linkMask, t int) {
	if t < m.until {
		return
	}
	for i := range m.roles {
		m.roles[i] = network.Sends | network.Receives
	}
	m.until, m.all = neverCrashes, true
	// A node stops receiving in its crash round c and stops sending in
	// c+1: the roles change at those rounds and at no others.
	for _, i := range e.crashSched {
		c := e.crashRound[i]
		if t > c {
			m.roles[i] &^= network.Sends
			m.all = false
		} else {
			m.until = min(m.until, c+1)
		}
		if t >= c {
			m.roles[i] &^= network.Receives
			m.all = false
		} else {
			m.until = min(m.until, c)
		}
	}
}

// prune drops from E(t) every link that cannot deliver in round t: from
// a crashed node that no longer sends, or to one that no longer
// receives. It reports whether E(t) now holds only links from round-t
// senders to nodes alive through round t, which (with no Byzantine
// node) lets the gather read each in-row as it stands. Only a CSR set
// of a run with crashes is pruned: a dense round has no transpose to
// save, and its gather skips dead senders off the bitmap words; a
// Byzantine receiver's links stay, as deliverRange skips it anyway. The
// caller owns edges (an InPlace adversary's scratch), and m is the
// calling goroutine's.
//
// Dropping those links leaves every count as it was: a gather counts
// only sending in-neighbors (heard), and only eligible receivers count
// lost messages, so the Result is the same field for field.
func (e *Engine) prune(m *linkMask, t int, edges *network.EdgeSet) bool {
	if len(e.crashSched) == 0 || m.roles == nil || !edges.IsSparse() {
		return false
	}
	e.maskAt(m, t)
	if !m.all {
		edges.KeepBetween(m.roles)
	}
	return true
}

// refreshView brings the state window up to date for round t without
// the O(n) eager capture (execView.refresh) the model describes. The
// lazy modes are equivalent to it because every Process.Broadcast
// implementation is a pure read — a node's public state at the start of
// round t is exactly its state after EndRound of the last round it was
// processed in, which the delivery loop captures as it goes. The
// equivalence property tests pin this against the eager refresh.
func (e *Engine) refreshView(t int) {
	switch {
	case e.viewSkip:
		// Oblivious adversary, no Byzantine strategies: no snapshot is
		// ever read, so none is taken.
	case !e.viewInit:
		e.view.refresh(t)
		e.viewInit = true
	default:
		// Processed nodes were re-snapped at the end of the previous
		// round; byz markers are constant; crashed nodes keep their
		// frozen state. Only crash flags can still flip.
		e.view.round = t
		for _, i := range e.crashSched {
			if t > e.crashRound[i] {
				e.view.snaps[i].Crashed = true
			}
		}
	}
}

// Step executes one synchronous round on the calling goroutine: E(t) —
// a graph a pipelined Run or RunRounds already built ahead, or one
// generated here — then playRound. It never builds ahead itself.
func (e *Engine) Step() {
	t := e.round
	e.refreshView(t)
	e.playRound(t, e.roundEdges(t))
}

// playRound executes round t over E(t): open it (broadcasts), prune
// E(t) of the links dead nodes cannot use if this goroutine rendered it
// (after openRound, so a Recorder and KeepTrace see E(t) whole), run the
// per-receiver core (deliverRange, which also counts the round's lost
// messages), close it (counters, observers). A set the build stage
// rendered is never pruned here: it came pruned, or it came whole for an
// edge observer with its receiver-major view already built, and pruning
// it would throw that build away; the gather skips its dead senders.
func (e *Engine) playRound(t int, edges *network.EdgeSet) {
	e.openRound(t, edges)
	if e.pruneDue {
		e.pruned = e.prune(&e.runMask, t, edges)
	}
	delivered, lost := e.deliverRange(t, edges)
	e.closeRound(t, delivered, lost)
}

// openRound is the first half of a round, once the adversary has chosen
// E(t) (reading start-of-round state through the view, if it adapts):
// every live node broadcasts. Crash-scheduled nodes still broadcast in
// their crash round (possibly reaching only a subset); Byzantine nodes
// produce per-receiver messages into the engine-owned storage Reset
// carved for them (no allocation), overwriting last round's so nothing
// stale is ever consulted. It also takes the round's sender census
// (senders, partial) that the gather's lost count and fault checks read.
func (e *Engine) openRound(t int, edges *network.EdgeSet) {
	rec := e.hooks.Recorder
	if rec != nil {
		rec.Record(trace.Event{Kind: trace.KindRound, Round: t, Edges: edges.Edges()})
	}
	if e.cfg.KeepTrace {
		e.result.Trace = append(e.result.Trace, edges.Clone())
	}
	e.senders, e.partial = 0, false
	for i := 0; i < e.cfg.N; i++ {
		if e.isByz[i] {
			b := &e.byz[i]
			b.strat.MessagesInto(t, i, e.view, b.store, b.out)
			e.sends[i] = true
			e.senders++
			continue
		}
		if t > e.crashRound[i] {
			e.sends[i] = false
			continue
		}
		m := e.cfg.Procs[i].Broadcast()
		e.broadcasts[i] = m
		e.sends[i] = true
		e.senders++
		if e.crashRound[i] == t && e.crashInfo[i].DeliverTo != nil {
			e.partial = true
		}
		if e.needSize {
			// One Size per broadcast per round; deliveries reuse it.
			e.bcastSize[i] = wire.Size(m)
		}
		if rec != nil {
			rec.Record(trace.Event{
				Kind: trace.KindBroadcast, Round: t, Node: i, Value: m.Value, Phase: m.Phase,
			})
			if e.crashRound[i] == t {
				rec.Record(trace.Event{Kind: trace.KindCrash, Round: t, Node: i})
			}
		}
	}
}

// closeRound is the second half: fold the round's message counts into
// the Result, feed the round-level observers, advance the clock.
func (e *Engine) closeRound(t, delivered, lost int) {
	e.result.MessagesDelivered += delivered
	e.result.MessagesLost += lost
	e.notifyRoundEnd(t)
	if e.hooks.Metrics != nil {
		e.emitRound(t, delivered, lost)
	}
	e.round++
}

// emitRound feeds the metrics sink one RoundSample: counters from the
// round just executed plus an O(n) convergence scan (running nodes,
// decided count, value range). The scan runs only when a sink is
// attached, and the sample is a stack value handed to the interface by
// value — a metrics-enabled round still allocates nothing (asserted by
// TestSteadyRoundAllocBudgetMetrics).
func (e *Engine) emitRound(t, delivered, lost int) {
	s := metrics.RoundSample{Round: t, Delivered: delivered, Lost: lost}
	var lo, hi float64
	for i, p := range e.cfg.Procs {
		if p == nil {
			continue
		}
		if e.decided[i] {
			s.Decided++
		}
		if t+1 > e.crashRound[i] {
			continue
		}
		v := p.Value()
		if s.Running == 0 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		s.Running++
	}
	if s.Running > 0 {
		s.Range = hi - lo
	}
	e.hooks.Metrics.RoundDone(s)
}

// deliverRange is the per-receiver round core, run over the whole
// receiver range in ascending node order: gather each receiver's
// in-edges in ascending port order, optionally shuffle, hand them to
// the algorithm, end the receiver's round. It returns the round's
// delivery count and its lost count; the byte and oversize counters go
// straight into the Result.
//
// Lost messages are the (sending node, eligible receiver) pairs with no
// link between them, where a receiver is eligible when it is not
// Byzantine and survives the whole round. Every gather counts the
// sending in-neighbors it meets (heard), so an eligible receiver v adds
// senders − 1 − heard: v is itself a sender, and (v, v) is never a
// link. On a pruned set (e.pruned: see prune) every in-neighbor sends,
// so heard is the row's length: a round after a crash reads its rows
// like a round with no crash (the clean arm), unless a sender crashes
// partially in it or a node is Byzantine.
//
// There is one body on purpose: variants that skip the delivery buffer
// when nothing observes deliveries measure within ±3 % of it on every
// repo-benchmark workload (BenchmarkEngineRound/n=51 is faster without
// them, 0.61 → 0.53 ms/run), so they are not worth a second route.
//
// Of a sparse set's two lazily built CSR views the loop reads only the
// receiver-major one — directly (the direct gather below) or through
// InNeighborsInto (gatherInNeighbors) — so a round never pays for the
// sender-major build; only an adversary that walks its own output
// (Has, or ForEachEdge on a log that is not sorted) forces that.
func (e *Engine) deliverRange(t int, edges *network.EdgeSet) (delivered, lost int) {
	liveView := !e.viewSkip
	// With identity ports and no wire sizes to price, the gather reads
	// the in-row straight into the buffer. A round in which every node sends
	// its broadcast to all and none crashes partially (clean) needs no
	// per-sender check at all.
	direct := !e.needSize && e.allIdentity
	sparse := edges.IsSparse()
	clean := (e.senders == e.cfg.N || e.pruned) && !e.partial && !e.hasByz
	var inStarts, inIDs []int32
	broadcasts, deliveries := e.broadcasts, e.deliveries
	if direct && sparse {
		inStarts, inIDs = edges.InCSR()
	}
	for v := 0; v < e.cfg.N; v++ {
		// A node receives in round t only if it survives the whole
		// round: its crash round delivers nothing to it.
		if e.isByz[v] || t >= e.crashRound[v] {
			continue
		}
		proc := e.cfg.Procs[v]
		var (
			ds    []core.Delivery
			heard int
		)
		switch {
		case direct && sparse && clean:
			// Every in-neighbor sends, and delivers its broadcast at
			// port == node ID, already ascending: fill the buffer by
			// index off the CSR row. The row is a handful of entries, so
			// the batch DeliverAll folds next is still in L1.
			row := inIDs[inStarts[v]:inStarts[v+1]]
			ds = deliveries[:len(row)]
			for i, u := range row {
				d := &ds[i]
				d.Port = int(u)
				d.Msg = broadcasts[u]
			}
			heard = len(row)
		case direct && sparse:
			ds, heard = e.gatherRow(t, v, inIDs[inStarts[v]:inStarts[v+1]])
		case direct:
			ds, heard = e.gatherBits(t, v, edges.InRow(v), clean)
		default:
			ds, heard = e.gatherInNeighbors(t, v, edges)
		}
		lost += e.senders - 1 - heard
		if e.cfg.ShuffleDelivery {
			shuffleDeliveries(ds, e.cfg.ShuffleSeed, t, v)
		}
		delivered += len(ds)
		if e.trackPhases {
			// Observer/Recorder configured: one message per call, with
			// the per-delivery probes interleaved — the same state as one
			// call by fold equivalence.
			for i := range ds {
				d := &ds[i]
				if e.hooks.Recorder != nil {
					e.hooks.Recorder.Record(trace.Event{
						Kind: trace.KindDeliver, Round: t, Node: v, Port: d.Port,
						Value: d.Msg.Value, Phase: d.Msg.Phase,
					})
				}
				before := proc.Phase()
				proc.DeliverAll(ds[i : i+1])
				if after := proc.Phase(); after != before {
					e.notePhase(v, before, after, proc.Value(), t)
				}
			}
		} else {
			// The receiver's whole in-edge batch in ONE dynamic call —
			// the fold inside dispatches statically.
			proc.DeliverAll(ds)
		}
		proc.EndRound()
		e.noteDecision(v, proc, t)
		if liveView {
			// End-of-round state IS the start-of-next-round snapshot:
			// nothing mutates the process until its next DeliverAll.
			e.view.snaps[v] = core.Snap(proc)
		}
	}
	return delivered, lost
}

// gatherRow is the direct gather over a CSR in-row in a round that is
// not clean: in-neighbors that no longer send are skipped, and the
// others deliver what sent resolves. It returns the filled prefix of
// e.deliveries and the number of sending in-neighbors.
func (e *Engine) gatherRow(t, v int, row []int32) ([]core.Delivery, int) {
	ds := e.deliveries
	byz := e.hasByz
	k, heard := 0, 0
	for _, u := range row {
		if !e.sends[u] {
			continue
		}
		heard++
		m := e.sent(t, int(u), v, byz)
		if m == nil {
			continue
		}
		d := &ds[k]
		d.Port = int(u)
		d.Msg = *m
		k++
	}
	return ds[:k], heard
}

// sent is the message sending node u delivers to receiver v in round t
// on the direct gather, nil for none: a Byzantine sender's message for
// v (a nil entry is silence, though v still hears from u), and
// otherwise u's broadcast unless u crashes in this round with a
// DeliverTo list that leaves v out (checked only when openRound saw
// such a crash). byz is e.hasByz, hoisted by the caller, so a round of
// a run without Byzantine nodes never loads isByz.
func (e *Engine) sent(t, u, v int, byz bool) *core.Message {
	if byz && e.isByz[u] {
		return e.byz[u].out[v]
	}
	if e.partial && e.crashRound[u] == t && !e.crashInfo[u].AllowsFinalDelivery(v) {
		return nil
	}
	return &e.broadcasts[u]
}

// gatherBits is the direct gather over a dense in-row's bitmap words,
// ascending. In a clean round it is the plain scan; otherwise it applies
// gatherRow's checks per sender.
func (e *Engine) gatherBits(t, v int, row []uint64, clean bool) ([]core.Delivery, int) {
	ds := e.deliveries
	k, heard := 0, 0
	base := 0
	if clean {
		for _, w := range row {
			for w != 0 {
				u := base + bits.TrailingZeros64(w)
				w &= w - 1
				d := &ds[k]
				d.Port = u
				d.Msg = e.broadcasts[u]
				k++
			}
			base += 64
		}
		return ds[:k], k
	}
	byz := e.hasByz
	for _, w := range row {
		for w != 0 {
			u := base + bits.TrailingZeros64(w)
			w &= w - 1
			if !e.sends[u] {
				continue
			}
			heard++
			m := e.sent(t, u, v, byz)
			if m == nil {
				continue
			}
			d := &ds[k]
			d.Port = u
			d.Msg = *m
			k++
		}
		base += 64
	}
	return ds[:k], heard
}

// gatherInNeighbors is the general gather, for rounds the direct one
// cannot serve (non-identity ports, link caps, bandwidth accounting): it
// iterates only v's actual in-neighbors off the edge set's transposed
// structure — the bitmap in-row dense, the CSR in-list sparse, both
// O(in-degree) — resolves each sender's message through outgoing
// (Byzantine per-receiver choice, crash partial delivery), applies the
// link cap, maps the sender to v's local port in O(1), and restores the
// documented ascending-port delivery order — bit-for-bit the order a
// walk over all n ports produces (the test oracle's gather), because
// ports are a bijection. Under the identity numbering ascending node
// order already IS ascending port order and the sort is skipped
// entirely.
//
// It fills e.deliveries and returns the filled prefix and the number of
// sending in-neighbors. Port and Msg are stored field-wise into the
// buffer by index, as the direct gathers do: appending a composite
// Delivery literal builds the 48-byte value on the stack and copies it,
// and DeliverAll's loads right behind stall on that copy's store
// forwarding (21 % of the sweep-byz-dense profile before this). The
// buffer holds n entries and a receiver has at most n−1 in-neighbors,
// so the index never leaves it.
func (e *Engine) gatherInNeighbors(t, v int, edges *network.EdgeSet) ([]core.Delivery, int) {
	ds := e.deliveries
	k := 0
	numbering := e.ports[v]
	e.inbuf = edges.InNeighborsInto(v, e.inbuf[:0])
	// Every in-neighbor is heard unless it has stopped sending, which
	// outgoing reports as silence: the count costs nothing on a delivery.
	heard := len(e.inbuf)
	for _, u := range e.inbuf {
		m, size, ok := e.outgoing(t, u, v)
		if !ok {
			if !e.sends[u] {
				heard--
			}
			continue // sender silent towards v (crashed, partial, or Byzantine nil)
		}
		if e.hasCap {
			if limit := e.cfg.linkCap(u, v); limit > 0 && size > limit {
				e.result.MessagesOversized++
				continue // the link cannot carry a message this large
			}
		}
		d := &ds[k]
		d.Port = numbering.PortOf(u)
		d.Msg = *m
		k++
		if e.cfg.AccountBandwidth {
			e.result.BytesDelivered += size
		}
	}
	ds = ds[:k]
	if !numbering.IsIdentity() {
		sortDeliveriesByPort(ds)
	}
	return ds, heard
}

// notifyRoundEnd feeds the optional RoundObserver extension through a
// dense, engine-owned RoundValues view: no map rebuild, no hashing, no
// allocation — the observer path is as allocation-stable as the rest of
// the round loop.
func (e *Engine) notifyRoundEnd(t int) {
	if e.roundObs == nil {
		return
	}
	for i, p := range e.cfg.Procs {
		running := p != nil && t+1 <= e.crashRound[i]
		e.rvRunning[i] = running
		if running {
			e.rvValues[i] = p.Value()
		} else {
			e.rvValues[i] = 0
		}
	}
	e.roundObs.OnRoundEnd(t, RoundValues{values: e.rvValues, running: e.rvRunning})
}

// outgoing resolves the message sender u directs at receiver v in round
// t, honoring Byzantine per-receiver choice and crash partial delivery.
// The message comes back as a pointer into the engine's round scratch
// (one copy into the Delivery, not two); size is the wire-format
// length, valid only when the configuration needs sizes (bandwidth
// accounting or link caps) — broadcast sizes come from the
// once-per-round pass, Byzantine per-receiver messages are sized here
// (each is delivered at most once per round).
func (e *Engine) outgoing(t, u, v int) (m *core.Message, size int, ok bool) {
	if e.isByz[u] {
		mp := e.byz[u].out[v]
		if mp == nil {
			return nil, 0, false
		}
		if e.needSize {
			size = wire.Size(*mp)
		}
		return mp, size, true
	}
	if !e.sends[u] {
		return nil, 0, false
	}
	if e.crashRound[u] == t && !e.crashInfo[u].AllowsFinalDelivery(v) {
		return nil, 0, false
	}
	return &e.broadcasts[u], e.bcastSize[u], true
}

func (e *Engine) notePhase(node, from, to int, value float64, round int) {
	if e.hooks.Observer != nil {
		e.hooks.Observer.OnPhaseEnter(node, from, to, value, round)
	}
	if e.hooks.Recorder != nil {
		e.hooks.Recorder.Record(trace.Event{
			Kind: trace.KindPhase, Round: round, Node: node,
			FromPhase: from, Phase: to, Value: value,
		})
	}
}

func (e *Engine) noteDecision(node int, proc core.Process, round int) {
	if e.decided[node] {
		return
	}
	v, ok := proc.Output()
	if !ok {
		return
	}
	e.decided[node] = true
	e.outputs[node] = v
	e.decideRound[node] = round
	if e.hooks.Observer != nil {
		e.hooks.Observer.OnDecide(node, v, round)
	}
	if e.hooks.Recorder != nil {
		e.hooks.Recorder.Record(trace.Event{Kind: trace.KindDecide, Round: round, Node: node, Value: v})
	}
}

func (e *Engine) allDecided() bool {
	for _, i := range e.faultFree {
		if !e.decided[i] {
			return false
		}
	}
	return true
}
