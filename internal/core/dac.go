package core

import "fmt"

// DAC is Algorithm 1 — Dynamic Approximate Consensus — the paper's
// crash-tolerant algorithm. It is correct when n ≥ 2f+1 and the dynamic
// graph satisfies (T, ⌊n/2⌋)-dynaDegree for some finite T (§IV), and it
// converges with the optimal rate 1/2 per phase (Remark 1).
//
// A node keeps only its state value v, the phase index p, the extremes
// v_min/v_max of the phase-p states seen so far, and an n-bit vector R
// marking the ports already counted for phase p. Two transition rules:
//
//   - jump (lines 5–8): a message from a higher phase q > p is adopted
//     wholesale — v ← v_j, p ← q — avoiding any need to retransmit old
//     phases under message loss;
//   - quorum (lines 12–15): after collecting ⌊n/2⌋+1 distinct phase-p
//     states (self included), v ← (v_min+v_max)/2 and p ← p+1.
//
// The node outputs v the first time p reaches pEnd (Equation 2) and then
// keeps broadcasting ⟨v, pEnd⟩ forever so that slower nodes can still
// jump; its phase never exceeds pEnd.
//
// R is only ever asked one question — has the quorum been reached? — so
// a node of a large honest population (see NewDACPopulation) starts each
// phase with a port log in R's words instead of the bitset: it appends
// ports, counts them with multiplicity in nr, and turns the log into the
// bitset (materialize) only before a delivery that could complete the
// quorum or would overflow the log. A lone node keeps the bitset.
type DAC struct {
	n      int
	pEnd   int
	quorum int

	v    float64
	p    int
	vmin float64
	vmax float64
	// R as a bitset — bit port set: phase-p state received from port —
	// whose word w is r[w*stride+col] (see word): r is the node's tile of
	// its population's R matrix, col its column there.
	r        []uint64
	nr       int // |R|: number of set bits; while logging, 1 + logged ports
	selfPort int
	decision float64

	stride, col int32

	// The port log, in the words of R's column (see extend): ne entries
	// written, logCap the most the log path may start from (0: the node
	// never logs), next the port that would extend the open run and run
	// that run's count, not yet written. A node that is not logging keeps
	// ne == logCap, so one compare admits the log path.
	ne, logCap, next, run int32

	noJump  bool // ablation only (experiment E12): disable lines 5–8, the jump rule
	decided bool
	logging bool // this phase's R is the log, not yet the bitset
}

var _ Process = (*DAC)(nil)

// NewDAC builds a DAC node.
//
// n is the network size (known to every node, §II-A); selfPort is the
// port index this node uses for itself in its local numbering; input is
// the node's initial value in [0,1]; eps is the agreement parameter ε.
//
// Every DAC constructor checks what a node shares with its population
// first — ε, pEnd, n, the quorum — and then its self port and input.
func NewDAC(n, selfPort int, input, eps float64) (*DAC, error) {
	if err := ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	return newDAC(n, selfPort, PEndDAC(eps), CrashQuorum(n), false, input)
}

// NewDACPhases builds a DAC node with an explicit output phase instead of
// one derived from ε. Used by convergence experiments that want to watch
// the range contract for a fixed number of phases.
func NewDACPhases(n, selfPort, pEnd int, input float64) (*DAC, error) {
	return newDAC(n, selfPort, pEnd, CrashQuorum(n), false, input)
}

// tileWidth is how many consecutive nodes of a population interleave
// their R vectors: word w of nodes 8k…8k+7 fills one 64-byte cache line.
const tileWidth = 8

// NewDACPopulation builds the DAC nodes of one n = len(inputs) network
// in node order — node i with self port selfPort(i) and input inputs[i],
// all with output phase pEnd, quorum quorum and, when noJump is set, the
// jump-rule ablation — except the slots skip reports (nil: none), which
// are left zero. It checks pEnd ≥ 0 and 1 ≤ quorum ≤ n, then each
// node's self port and input; an error names the node it was found
// at (pEnd and quorum at the first node built). A caller whose pEnd
// comes from ε checks ε first, as NewDAC does.
//
// The nodes' R vectors share one matrix tiled tileWidth nodes wide, so
// a receiver and the next one in node order keep word w of R on the same
// cache line: a round whose receivers are walked in order and whose
// senders cluster (a rotating graph gives receiver i the ports
// i+o+1…i+o+d) touches one line per tileWidth receivers instead of one
// per receiver. Random senders still hit random lines. The whole
// population costs O(1) allocations.
//
// A population with no skipped slot — so every sender is an honest DAC
// node — of minLogN to maxLogN nodes also logs each phase's ports in
// R's words (see extend). Random senders then write a node's own first
// line instead of a random line of R. A node's deliveries touch only its
// own state and the words of its own column, so two goroutines may
// deliver to the nodes of disjoint tiles at once.
func NewDACPopulation(pEnd, quorum int, noJump bool, selfPort func(i int) int, inputs []float64, skip func(i int) bool) ([]DAC, error) {
	ds, bad, err := buildDACs(len(inputs), tileWidth, pEnd, quorum, noJump, selfPort, inputs, skip)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", bad, err)
	}
	return ds, nil
}

// newDAC builds one node as a one-node tile: width 1, so its R is a
// plain bitset (stride 1, column 0) and it never logs.
func newDAC(n, selfPort, pEnd, quorum int, noJump bool, input float64) (*DAC, error) {
	ds, _, err := buildDACs(n, 1, pEnd, quorum, noJump, func(int) int { return selfPort }, []float64{input}, nil)
	if err != nil {
		return nil, err
	}
	return &ds[0], nil
}

// buildDACs is the one layout rule behind every DAC constructor: it
// builds len(inputs) nodes of an n-node network over one R matrix of
// ⌈len(inputs)/width⌉ tiles, each width nodes wide, where word w of
// node i lives at tile(i)·words·width + w·width + i%width. A bitset,
// not []bool: n nodes each holding an n-entry R would otherwise put the
// population at Θ(n²) bytes — a gigabyte-scale footprint at n ≥ 6·10⁴.
// It returns the index of the node an error was found at.
func buildDACs(n, width, pEnd, quorum int, noJump bool, selfPort func(int) int, inputs []float64, skip func(int) bool) ([]DAC, int, error) {
	words := (n + 63) / 64
	tile := words * width
	ds := make([]DAC, len(inputs))
	var bits []uint64
	checked, skipped := false, false
	for i, input := range inputs {
		if skip != nil && skip(i) {
			skipped = true
			continue
		}
		if !checked {
			if pEnd < 0 {
				return nil, i, fmt.Errorf("core: negative pEnd %d", pEnd)
			}
			if n < 1 {
				return nil, i, fmt.Errorf("%w: n=%d", ErrResilience, n)
			}
			if quorum < 1 || quorum > n {
				return nil, i, fmt.Errorf("core: quorum %d out of range [1,%d]", quorum, n)
			}
			bits = make([]uint64, (len(inputs)+width-1)/width*tile)
			checked = true
		}
		sp := selfPort(i)
		if sp < 0 || sp >= n {
			return nil, i, fmt.Errorf("core: self port %d out of range [0,%d)", sp, n)
		}
		if err := ValidateInput(input); err != nil {
			return nil, i, err
		}
		t := i / width * tile
		d := &ds[i]
		*d = DAC{
			n: n, pEnd: pEnd, quorum: quorum, noJump: noJump,
			v: input, vmin: input, vmax: input,
			r: bits[t : t+tile : t+tile], stride: int32(width), col: int32(i % width),
			selfPort: sp,
		}
		d.openR() // the matrix is fresh: R is already empty
		d.maybeDecide()
	}
	if width == tileWidth && n >= minLogN && n <= maxLogN && !skipped {
		for i := range ds {
			d := &ds[i]
			d.logCap = int32(4*words - 1) // one entry held back for closeRun
			*d.word(d.selfPort) = 0       // the only bit set: R is a log now
			d.openR()
		}
	}
	return ds, 0, nil
}

// Broadcast implements Process (Algorithm 1 line 2).
func (d *DAC) Broadcast() Message { return Message{Value: d.v, Phase: d.p} }

// Deliver is DeliverAll for one message (Algorithm 1 lines 4–15).
func (d *DAC) Deliver(dl Delivery) { d.deliver(dl.Port, dl.Msg.Value, dl.Msg.Phase) }

// deliver is the body of Deliver on the port and the two fields
// Algorithm 1 reads, so no caller copies a 48-byte Delivery to get
// here. DeliverAll shares it for every case its inlined loop does not
// handle itself.
func (d *DAC) deliver(port int, value float64, phase int) {
	switch {
	case phase > d.p:
		if d.noJump {
			break // ablation: future states are discarded
		}
		// Jump: copy the future state (lines 5–8).
		d.v = value
		d.p = phase
		if d.p > d.pEnd {
			d.p = d.pEnd // peers never exceed pEnd; defensive clamp
		}
		d.reset()
	case phase == d.p:
		d.hear(port, value)
	}
	// Quorum check (lines 12–15) runs after every processed message,
	// stale ones included.
	if d.p < d.pEnd && d.nr >= d.quorum {
		d.advance()
	}
	d.maybeDecide()
}

// hear is a new same-phase state (lines 9–11): R gains port and STORE
// runs if port is new. A node that logs appends port to the log while
// that cannot complete the quorum — nr = 1 + logged ports stays at most
// quorum − 1, so no quorum fires — and the log has room; otherwise it
// materializes first and goes on with the bitset. The log STOREs a
// repeated port again, which is exact because every sender is an honest
// DAC node, whose value is fixed within a phase: v changes only together
// with p. DeliverAll inlines the same body.
func (d *DAC) hear(port int, value float64) {
	if d.ne < d.logCap && d.nr+1 < d.quorum {
		if !d.extend(port) {
			d.closeRun()
			d.putPort(port)
		}
		d.nr++
		d.store(value)
	} else {
		if d.logging {
			d.materialize()
		}
		if d.mark(port) {
			d.nr++
			d.store(value)
		}
	}
}

// mark sets port's bit of R and reports whether it was clear.
func (d *DAC) mark(port int) bool {
	w, bit := d.word(port), uint64(1)<<(uint(port)&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// advance is the quorum transition (lines 13–15).
func (d *DAC) advance() {
	d.v = (d.vmin + d.vmax) / 2
	d.p++
	d.reset()
}

// EndRound implements Process; DAC is edge-triggered.
func (d *DAC) EndRound() {}

// Output implements Process (line 16–17).
func (d *DAC) Output() (float64, bool) { return d.decision, d.decided }

// Phase implements Process.
func (d *DAC) Phase() int { return d.p }

// Value implements Process.
func (d *DAC) Value() float64 { return d.v }

// Reinit implements Process: return to the freshly-constructed
// state with a new input, keeping n, pEnd, quorum, the self port, the
// ablation flag and R's place in its population's matrix.
func (d *DAC) Reinit(input float64) {
	d.v = input
	d.p = 0
	d.reset()
	d.decided = false
	d.decision = 0
	d.maybeDecide()
}

// word is the one R index expression: the word of R holding port's bit.
// Word w of a node's R sits stride words after word w−1, so a tile's
// nodes share one cache line per word (see buildDACs).
func (d *DAC) word(port int) *uint64 { return &d.r[(port>>6)*int(d.stride)+int(d.col)] }

// The port log. Only a node of a population of minLogN to maxLogN
// nodes with no skipped slot logs (see buildDACs): below minLogN the
// matrix is cache-resident and the log would only add a materialize per
// phase, and above maxLogN a port no longer fits an entry.
const (
	minLogN = 64*7 + 1 // a column of at least 8 words
	maxLogN = 1 << 15
	runBit  = 0x8000 // an entry with this bit set continues the last run
	runMax  = 0x7fff // the most ports one run entry continues
)

// logWord is the word of R's column holding log entry k: entries are 16
// bits, four to a word, in the node's own column of its tile, so a
// phase's log stays on the node's first lines. Only population nodes log,
// so the column's stride is tileWidth.
func (d *DAC) logWord(k int32) *uint64 { return &d.r[int(k>>2)*tileWidth+int(d.col)] }

// extend, closeRun and putPort log a port (ne < logCap): a caller tries
// extend and, when it fails, closes the open run and gives the port an
// entry. An entry is a port or, with runBit set, "the previous run
// continues k more ports", where a run steps port by port and wraps from
// n − 1 to 0. A port that continues the last one — what rotating,
// complete and group graphs deliver — adds one to the open run's count,
// which is written to its entry only when the run closes. All three
// inline, so DeliverAll's loop makes no call and a run touches no word
// of R.
func (d *DAC) extend(port int) bool {
	if int32(port) != d.next || d.run == runMax {
		return false // next is −1 on an empty log
	}
	d.run++
	d.next = d.after(port)
	return true
}

// closeRun writes the open run, if any, to its entry. The entry was not
// counted in ne while the run was open, which is why logCap holds one
// back.
func (d *DAC) closeRun() {
	if d.run > 0 {
		d.put(runBit | uint64(d.run))
		d.run = 0
	}
}

// putPort gives port an entry of its own.
func (d *DAC) putPort(port int) {
	d.put(uint64(port))
	d.next = d.after(port)
}

// put appends entry e to the log.
func (d *DAC) put(e uint64) {
	*d.logWord(d.ne) |= e << (uint(d.ne) & 3 * 16)
	d.ne++
}

// after is the port a run continues with after port.
func (d *DAC) after(port int) int32 {
	if port+1 == d.n {
		return 0
	}
	return int32(port + 1)
}

// materialize turns the log into the bitset it stands for: it moves the
// entries to a buffer of its own call (a column holds at most
// maxLogN/64 words), zeroes the words they used, and sets self and
// every logged port as bits, so nr is exact. The rest of the phase runs
// on the bitset.
func (d *DAC) materialize() {
	d.closeRun()
	ne := d.ne
	var scratch [maxLogN / 64]uint64
	for k := int32(0); k < ne; k += 4 {
		w := d.logWord(k)
		scratch[k>>2] = *w
		*w = 0
	}
	d.logging, d.ne = false, d.logCap // the log path stays shut
	d.countSelf()
	port := 0
	for k := int32(0); k < ne; k++ {
		e := int(uint16(scratch[k>>2] >> (uint(k) & 3 * 16)))
		run := 1
		if e&runBit == 0 {
			port = e
		} else {
			run = e &^ runBit
		}
		for ; run > 0; run-- {
			if port == d.n {
				port = 0
			}
			if d.mark(port) {
				d.nr++
			}
			port++
		}
	}
}

// openR starts an empty R, |R| = 1 for the self entry: an empty log for
// a node that logs, the self bit otherwise. R's words must be zero.
func (d *DAC) openR() {
	if d.logCap == 0 {
		d.countSelf()
		return
	}
	d.logging, d.ne, d.next, d.run = true, 0, -1, 0
	d.nr = 1
}

// countSelf sets the self entry of an empty R (|R| = 1).
func (d *DAC) countSelf() {
	*d.word(d.selfPort) |= 1 << (uint(d.selfPort) & 63)
	d.nr = 1
}

// reset is RESET() of Algorithm 1: clear R except the self entry and
// collapse the phase-p extremes onto the current value. It clears this
// node's column only: the other words of each line are its tile mates'.
// A log clears only the words its entries used.
func (d *DAC) reset() {
	if d.logging {
		for k := int32(0); k < d.ne; k += 4 {
			*d.logWord(k) = 0
		}
	} else {
		for port := 0; port < d.n; port += 64 {
			*d.word(port) = 0
		}
	}
	d.openR()
	d.vmin = d.v
	d.vmax = d.v
}

// store is STORE(v_j) of Algorithm 1.
func (d *DAC) store(v float64) {
	if v < d.vmin {
		d.vmin = v
	} else if v > d.vmax {
		d.vmax = v
	}
}

func (d *DAC) maybeDecide() {
	if !d.decided && d.p >= d.pEnd {
		d.decided = true
		d.decision = d.v
	}
}
