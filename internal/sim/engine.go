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
	pop       core.Population // drives cfg.Procs' nodes
	maxRounds int
	ports     network.Ports
	ownPorts  bool // ports were engine-built identity numberings (reusable)

	round int
	view  *execView

	// dense per-node execution state, sized cfg.N
	isByz       []bool
	byz         []byzNode         // per node: its Byzantine strategy and message storage; nil until a run has Byzantine nodes
	byzOut      [][]*core.Message // per Byzantine node: this round's message per receiver (nil entry: silent); allocated with byz
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
	live        []bool            // node broadcasts in round t: sends and is not Byzantine — Population.BroadcastAll's mask
	bcastSize   []int             // wire.Size per broadcast, computed once per round
	byzStoreBuf []core.Message    // flat backing of every byzNode.store, grown in Reset, recycled across runs
	byzOutBuf   []*core.Message   // flat backing of every byzOut entry
	deliveries  []core.Delivery   // the receiver's gather buffer, n entries
	rowbuf      []int32           // the receiver's sending in-neighbours on the dense-row arm, n entries
	inbuf       []int             // in-neighbor list behind gather, capacity n
	edges       *network.EdgeSet  // engine-owned E(t) for InPlace adversaries
	inPlace     adversary.InPlace // non-nil when the adversary has the fast path
	hooks       Hooks             // cfg.Hooks, cached
	needSize    bool              // any consumer of wire sizes configured
	hasCap      bool              // cfg.MaxMessageBytes > 0: every link carries that budget

	// two-stage pipeline state (see pipeline.go)
	pipelines   bool             // Run/RunRounds may build E(t+1) on a second goroutine
	spare       *network.EdgeSet // the build stage's target; swapped with edges when consumed
	pending     bool             // spare holds E(round), built ahead by the last pipelined round
	pruneAhead  bool             // the build stage prunes what it builds: no Recorder, no KeepTrace
	prunedAhead bool             // the pending set was pruned; written by the build stage before its reply
	helper      *buildStage      // the stage building ahead of the round in flight, which deliverCSR lets help; nil otherwise
	csr         csrRound         // the round deliverCSR shares with the helper
	helped      int              // chunks the build stage has delivered over the engine's life; written by it before its reply

	// Crash-aware pruning (see prune): pruned says E(round) is a CSR set
	// holding only links from round senders to nodes alive through the
	// round; pruneDue says the run goroutine rendered E(round) itself and
	// prunes it after openRound. Each goroutine that prunes keeps its own
	// masks: runMask the run goroutine's, aheadMask the build stage's.
	pruned    bool
	pruneDue  bool
	runMask   linkMask
	aheadMask linkMask

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
	// no bandwidth accounting) lets a round skip the port map and the
	// per-delivery sizes: the word, CSR and dense-row arms of deliverRange
	// need it. hasByz says the run has Byzantine nodes.
	allIdentity bool
	hasByz      bool

	// Per-round sender census, taken by openRound (see census): how many
	// nodes send (the lost count's "alive sender" side), and whether some
	// sender crashes this round with a DeliverTo list (then the round
	// gathers, as only the gather consults AllowsFinalDelivery).
	senders int
	partial bool

	// The census is also kept as node sets, bit i&63 of word i>>6 for
	// node i: the round's receivers (alive through the round, not
	// Byzantine), and at n ≤ wordN its senders in one word, beside the
	// Byzantine nodes' (set at Reset). They feed the batch rounds
	// (deliverWords, deliverCSR), which return the receivers that have
	// decided in decidedMask, as long as recvMask.
	recvMask, decidedMask []uint64
	sendWord, byzWord     uint64

	// trackPhases is false when neither an Observer nor a Recorder is
	// configured: phase transitions then have no consumer, and the
	// delivery loop skips the two Phase() probes per delivery — at
	// n=1025/p=8/n that is ~16k interface calls per round feeding a no-op.
	trackPhases bool

	result Result // counters accumulate here; finish() materializes maps
}

// wordN is the most nodes a word round serves: one bit of a uint64 each.
const wordN = 64

// byzNode is one Byzantine node's strategy and the engine-owned storage
// it fills; its messages per receiver are in Engine.byzOut.
type byzNode struct {
	strat fault.Strategy
	store []core.Message
}

// NewEngine validates the configuration and prepares an execution of
// cfg.Procs through core.PerNode.
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
// so a batch worker can run thousands of seeds on one instance. It drives
// cfg.Procs through core.PerNode.
func (e *Engine) Reset(cfg Config) error {
	return e.ResetPopulation(cfg, core.PerNode(cfg.Procs))
}

// ResetPopulation is Reset with pop driving cfg.Procs' nodes: pop.X(i)
// must act on cfg.Procs[i] as its X method would, as core.PopulationOf
// does over the []core.DAC cfg.Procs points into. The engine then calls
// only pop; cfg.Procs still names the Byzantine slots (nil).
func (e *Engine) ResetPopulation(cfg Config, pop core.Population) error {
	maxRounds, err := cfg.validate()
	if err != nil {
		return err
	}
	n := cfg.N
	sameN := e.broadcasts != nil && len(e.broadcasts) == n
	e.cfg = cfg
	e.pop = pop
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
			e.bcastSize[i] = 0
		}
		e.crashSched = e.crashSched[:0]
		clear(e.byz) // drop last run's slices: nothing stale survives
		clear(e.byzOut)
	} else {
		e.isByz = make([]bool, n)
		e.byz, e.byzOut = nil, nil
		e.decided = make([]bool, n)
		e.outputs = make([]float64, n)
		e.decideRound = make([]int, n)
		e.inputs = make([]float64, n)
		e.broadcasts = make([]core.Message, n)
		e.sends = make([]bool, n)
		e.live = make([]bool, n)
		e.bcastSize = make([]int, n)
		e.crashRound = make([]int, n)
		e.crashInfo = make([]fault.Crash, n)
		// Max in-degree is n−1: buffers sized up front so a later
		// record-degree round can never regrow them (steady rounds stay
		// at 0 allocs).
		e.deliveries = make([]core.Delivery, n)
		e.rowbuf = make([]int32, n)
		masks := make([]uint64, 2*network.MaskWords(n))
		e.recvMask, e.decidedMask = masks[:len(masks)/2:len(masks)/2], masks[len(masks)/2:]
		e.inbuf = make([]int, 0, n)
		e.crashSched = nil
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
		e.byz, e.byzOut = make([]byzNode, n), make([][]*core.Message, n)
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
		e.byzOut[i] = e.byzOutBuf[off : off+n : off+n]
		off += n
	}
	fillCrashState(e.crashRound, e.crashInfo, cfg.Crashes)
	for i := 0; i < n; i++ {
		if e.crashRound[i] != neverCrashes {
			e.crashSched = append(e.crashSched, i)
		}
		// Round 0's senders: every node (no crash round is negative).
		// census turns off only crash-scheduled nodes from then on.
		e.sends[i], e.live[i] = true, !e.isByz[i]
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
	e.needSize = cfg.AccountBandwidth || cfg.MaxMessageBytes > 0
	e.hasCap = cfg.MaxMessageBytes > 0

	if e.view == nil {
		e.view = newExecView(&e.cfg, pop, e.isByz)
	} else {
		e.view.reset(&e.cfg, pop, e.isByz)
	}

	e.faultFree = cfg.FaultFree()
	e.sendWord = 0
	if n <= wordN {
		e.sendWord = ^uint64(0) >> (wordN - n)
	}
	clear(e.recvMask)
	e.byzWord = 0
	for i, byz := range e.isByz {
		switch {
		case !byz:
			e.recvMask[i>>6] |= 1 << uint(i&63)
		case n <= wordN:
			e.byzWord |= 1 << uint(i)
		}
	}
	e.result = Result{}
	for i := 0; i < n; i++ {
		if !e.isByz[i] {
			e.inputs[i] = pop.Value(i)
		}
	}
	// A degenerate network (or pEnd = 0) can decide at construction.
	for i := 0; i < n; i++ {
		if !e.isByz[i] {
			e.noteDecision(i, 0)
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
// nothing from the round in flight. Once it has built, it helps deliver
// the round in flight if that is a clean CSR round (see deliverCSR),
// which no result can tell either. The goroutine has done its last
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
		if !e.isByz[i] {
			res.Inputs[i] = e.inputs[i]
		}
	}
	return &res
}

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

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
// lazy modes are equivalent to it because BroadcastAll never changes a
// node's state (a DAC population only copies it out): its state at the
// start of round t is exactly its state after EndRound of the last
// round it was processed in, which the delivery loop captures as it
// goes. The equivalence property tests pin this against the eager
// refresh.
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
// it takes the round's sender census (senders, partial, and the sends
// and live masks) that the gather's lost count and fault checks read,
// then every sender speaks. Crash-scheduled nodes still broadcast in
// their crash round (possibly reaching only a subset); Byzantine nodes
// produce per-receiver messages into the engine-owned storage Reset
// carved for them (no allocation), overwriting last round's so nothing
// stale is ever consulted. The live nodes broadcast through one
// Population.BroadcastAll call, which fills e.broadcasts (and a DAC
// population's start-of-round table). Wire sizes and the Recorder's
// broadcast and crash events take a second pass over the live nodes,
// made only when one of them is on.
func (e *Engine) openRound(t int, edges *network.EdgeSet) {
	rec := e.hooks.Recorder
	if rec != nil {
		rec.Record(trace.Event{Kind: trace.KindRound, Round: t, Edges: edges.Edges()})
	}
	if e.cfg.KeepTrace {
		e.result.Trace = append(e.result.Trace, edges.Clone())
	}
	e.census(t)
	if e.hasByz {
		for i, byz := range e.isByz {
			if byz {
				b := &e.byz[i]
				b.strat.MessagesInto(t, i, e.view, b.store, e.byzOut[i])
			}
		}
	}
	e.pop.BroadcastAll(e.live, e.broadcasts)
	if !e.needSize && rec == nil {
		return
	}
	for i, live := range e.live {
		if !live {
			continue
		}
		m := e.broadcasts[i]
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

// census brings the sender masks to round t and counts the round's
// senders. A node stops sending only once its crash round has passed,
// and Byzantine nodes never crash, so from Reset's round-0 masks (every
// node sends, every non-Byzantine one broadcasts) only crash-scheduled
// nodes ever change: the census costs O(crashes), not O(n). It also
// brings the node sets of the senders (at n ≤ wordN) and of the
// receivers to round t: a node stops receiving in its crash round.
func (e *Engine) census(t int) {
	e.senders, e.partial = e.cfg.N, false
	for _, i := range e.crashSched {
		c := e.crashRound[i]
		if t > c {
			e.sends[i], e.live[i] = false, false
			e.sendWord &^= 1 << uint(i)
			e.senders--
		} else if c == t && e.crashInfo[i].DeliverTo != nil {
			e.partial = true
		}
		if t >= c {
			e.recvMask[i>>6] &^= 1 << uint(i&63)
		}
	}
}

// closeRound is the second half: fold the round's message counts into
// the Result, feed the metrics sink, advance the clock.
func (e *Engine) closeRound(t, delivered, lost int) {
	e.result.MessagesDelivered += delivered
	e.result.MessagesLost += lost
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
	for i := 0; i < e.cfg.N; i++ {
		if e.isByz[i] {
			continue
		}
		if e.decided[i] {
			s.Decided++
		}
		if t+1 > e.crashRound[i] {
			continue
		}
		v := e.pop.Value(i)
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
// the population, end the receiver's round. It returns the round's
// delivery count and its lost count; the byte and oversize counters go
// straight into the Result.
//
// Lost messages are the (sending node, eligible receiver) pairs with no
// link between them, where a receiver is eligible when it is not
// Byzantine and survives the whole round. Every arm counts the sending
// in-neighbors it meets (heard), so an eligible receiver v adds
// senders − 1 − heard: v is itself a sender, and (v, v) is never a
// link. On a pruned set (e.pruned: see prune) every in-neighbor sends,
// so heard is the row's length.
//
// A round with identity ports, no wire sizes, no sender crashing
// partially, no shuffle and no per-delivery watcher fills no delivery
// buffer. On a dense set of at most 64 nodes it goes by word
// (deliverWords: one population call over the in-row words, Byzantine
// senders included); that is sweep-byz-dense's and sweep-small-local's
// round. With no Byzantine node, a CSR set whose rows list only senders
// (clean: every node sends, or the set was pruned) goes in one
// population call too (deliverCSR, over the receiver-major view as it
// stands), the run goroutine's critical path on round-sparse-er2 and
// round-sparse-regular; and a larger dense set goes by row, each
// receiver's sending in-neighbors, ascending, to Population.DeliverRow
// as an ID list collected into e.rowbuf, so a DAC population reads its
// senders' 16-byte start-of-round entries instead of copying 40-byte
// Messages into 48-byte Deliveries. Every other round gathers into the
// buffer (gather) and calls DeliverAll.
//
// Of a sparse set's two lazily built CSR views the loop reads only the
// receiver-major one — directly (deliverCSR) or through InNeighborsInto
// (gather) — so a round never pays for the sender-major build; only an
// adversary that walks its own output (Has, or ForEachEdge on a log that
// is not sorted) forces that.
func (e *Engine) deliverRange(t int, edges *network.EdgeSet) (delivered, lost int) {
	liveView := !e.viewSkip
	sparse := edges.IsSparse()
	byRow := !e.needSize && e.allIdentity && !e.partial && !e.cfg.ShuffleDelivery && !e.trackPhases
	if byRow && e.cfg.N <= wordN && !sparse {
		return e.deliverWords(t, edges)
	}
	byRow = byRow && !e.hasByz
	if byRow && sparse && (e.senders == e.cfg.N || e.pruned) {
		return e.deliverCSR(t, edges)
	}
	byRow = byRow && !sparse
	pop, broadcasts := e.pop, e.broadcasts
	for v := 0; v < e.cfg.N; v++ {
		// A node receives in round t only if it survives the whole
		// round: its crash round delivers nothing to it.
		if e.isByz[v] || t >= e.crashRound[v] {
			continue
		}
		if byRow {
			// Every listed in-neighbor delivers its broadcast at port ==
			// node ID, already ascending.
			row := e.sendingBits(edges.InRow(v))
			lost += e.senders - 1 - len(row)
			delivered += len(row)
			pop.DeliverRow(v, row, broadcasts)
		} else {
			ds, heard := e.gather(t, v, edges)
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
					before := pop.Phase(v)
					pop.DeliverAll(v, ds[i:i+1])
					if after := pop.Phase(v); after != before {
						e.notePhase(v, before, after, pop.Value(v), t)
					}
				}
			} else {
				pop.DeliverAll(v, ds)
			}
		}
		pop.EndRound(v)
		e.noteDecision(v, t)
		if liveView {
			// End-of-round state IS the start-of-next-round snapshot:
			// nothing mutates the node until its next delivery.
			e.view.snaps[v] = core.Snap(pop, v)
		}
	}
	return delivered, lost
}

// deliverWords is deliverRange's word round on a dense set of at most
// 64 nodes: one Population.DeliverWords call for every receiver, over
// the set's in-row words, the census words and the Byzantine nodes'
// messages. Receiver v hears the senders in its in-row word, so the
// counts are popcounts, less the Byzantine senders silent towards v
// for the delivered count, as gather counts them.
func (e *Engine) deliverWords(t int, edges *network.EdgeSet) (delivered, lost int) {
	in, sends, recv, byz := edges.InWords(), e.sendWord, e.recvMask[0], e.byzWord
	for r := recv; r != 0; r &= r - 1 {
		delivered += bits.OnesCount64(in[bits.TrailingZeros64(r)] & sends)
	}
	lost = bits.OnesCount64(recv)*(e.senders-1) - delivered
	if byz != 0 {
		delivered -= e.silentLinks(recv, in)
	}
	e.decidedMask[0] = e.pop.DeliverWords(recv, in, sends, e.broadcasts, byz, e.byzOut)
	e.endBatch(t)
	return delivered, lost
}

// silentLinks counts the word round's links from a Byzantine sender
// whose message for the receiver is nil: heard, but not delivered.
func (e *Engine) silentLinks(recv uint64, in []uint64) int {
	silent := 0
	for r := recv; r != 0; r &= r - 1 {
		v := bits.TrailingZeros64(r)
		for b := in[v] & e.byzWord; b != 0; b &= b - 1 {
			if e.byzOut[bits.TrailingZeros64(b)][v] == nil {
				silent++
			}
		}
	}
	return silent
}

// deliverCSR is deliverRange's by-row round on a clean CSR set:
// Population.DeliverCSR over the set's receiver-major view and the
// census's receiver set, in chunks of receivers (see csrRound). The run
// goroutine claims every chunk, or, while the build stage builds ahead
// (helper), shares them with it (see pipeline.go) and waits for the
// stage's reply before endBatch reads what they decided. Every listed
// sender sends, so a receiver hears its whole row, and the round
// delivers every link but those into the nodes that no longer receive
// — crash-scheduled ones, as a by-row round has no Byzantine node.
func (e *Engine) deliverCSR(t int, edges *network.EdgeSet) (delivered, lost int) {
	starts, ids := edges.InCSR()
	receivers := e.cfg.N
	delivered = int(starts[receivers])
	for _, i := range e.crashSched {
		if t >= e.crashRound[i] {
			receivers--
			delivered -= int(starts[i+1] - starts[i])
		}
	}
	lost = receivers*(e.senders-1) - delivered
	r := &e.csr
	r.pop, r.recv, r.starts, r.ids, r.msgs, r.decided = e.pop, e.recvMask, starts, ids, e.broadcasts, e.decidedMask
	r.next.Store(0)
	if e.helper != nil {
		e.helper.post(r)
	}
	r.deliver(0)
	if e.helper != nil {
		e.helper.wait()
	}
	e.endBatch(t)
	return delivered, lost
}

// endBatch finishes a batch round: only the receivers the population
// reported decided (decidedMask) go through noteDecision, and every
// receiver is re-snapped when the view is live. A node's round touches
// only its own state, so doing these after all the deliveries, not
// after each receiver's, changes nothing.
func (e *Engine) endBatch(t int) {
	for w, word := range e.decidedMask {
		for ; word != 0; word &= word - 1 {
			e.noteDecision(w<<6|bits.TrailingZeros64(word), t)
		}
	}
	if e.viewSkip {
		return
	}
	for w, word := range e.recvMask {
		for ; word != 0; word &= word - 1 {
			v := w<<6 | bits.TrailingZeros64(word)
			e.view.snaps[v] = core.Snap(e.pop, v)
		}
	}
}

// sendingBits is the dense-row arm's list for a dense in-row's bitmap
// words: the in-neighbors that send this round, ascending, in e.rowbuf.
func (e *Engine) sendingBits(row []uint64) []int32 {
	buf := e.rowbuf
	k := 0
	for w, word := range row {
		base := w * 64
		for word != 0 {
			u := base + bits.TrailingZeros64(word)
			word &= word - 1
			if e.sends[u] {
				buf[k] = int32(u)
				k++
			}
		}
	}
	return buf[:k]
}

// gather is the delivery buffer's fill, for every round the word, CSR
// and dense-row arms do not take (non-identity ports, link caps,
// bandwidth accounting, a partial crash, a Byzantine node past the word
// round, shuffled or watched delivery, a CSR set that still lists
// crashed senders): it iterates only v's actual in-neighbors off the
// edge set's transposed structure — the bitmap in-row dense, the CSR
// in-list sparse, both O(in-degree) — resolves each sender's message
// through outgoing (Byzantine per-receiver choice, crash partial
// delivery), applies the link cap, maps the sender to v's local port in
// O(1), and restores the documented ascending-port delivery order —
// bit-for-bit the order a walk over all n ports produces (the test
// oracle's gather), because ports are a bijection. Under the identity
// numbering ascending node order already IS ascending port order and
// the sort is skipped entirely.
//
// It fills e.deliveries and returns the filled prefix and the number of
// sending in-neighbors. Port and Msg are stored field-wise into the
// buffer by index: appending a composite Delivery literal builds the
// 48-byte value on the stack and copies it, and DeliverAll's loads right
// behind stall on that copy's store forwarding (21 % of the
// sweep-byz-dense profile before this). The buffer holds n entries and a
// receiver has at most n−1 in-neighbors, so the index never leaves it.
func (e *Engine) gather(t, v int, edges *network.EdgeSet) ([]core.Delivery, int) {
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
		if e.hasCap && size > e.cfg.MaxMessageBytes {
			e.result.MessagesOversized++
			continue // the link cannot carry a message this large
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
		mp := e.byzOut[u][v]
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

func (e *Engine) noteDecision(node, round int) {
	if e.decided[node] {
		return
	}
	v, ok := e.pop.Output(node)
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
