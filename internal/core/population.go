package core

import (
	"math"
	"math/bits"
)

// Population is the engine's process role: the state machines of every
// non-Byzantine node of one execution, addressed by node ID. The engine
// drives it with Process's synchronous-round protocol:
//
//  1. BroadcastAll once at the top of the round, for all the nodes that
//     broadcast in it at once;
//  2. for every receiver v, DeliverRow(v, …) once or DeliverAll(v, …)
//     any number of times, then EndRound(v) — or one call for all the
//     receivers at once, in a round with identity ports in which every
//     sender delivers its broadcast or, if Byzantine, its message for
//     the receiver: DeliverWords over the in-row words of a network of
//     at most 64 nodes, and, with no Byzantine sender, DeliverCSR over
//     the rows of a receiver-major CSR. The engine calls DeliverRow
//     itself only for the dense rows of a network past 64 nodes; a
//     population's own DeliverWords and DeliverCSR may reach it per row.
//
// Self-delivery is never routed through it, as for Process. The engine
// never addresses a Byzantine node's ID, and live is false at every one.
// Between two BroadcastAll calls on the same msgs slice nothing but the
// population writes msgs, and its nodes change only through its own
// methods: a population may then rewrite only the entries of the nodes
// whose state changed since its last call.
//
// PerNode adapts any []Process; PopulationOf runs a DAC network built
// by NewDACPopulation and DBACPopulationOf a DBAC network built by
// NewDBACPopulation, without a dynamic call per node, reading each
// receiver's senders off a compact copy of their broadcasts.
type Population interface {
	// BroadcastAll sets msgs[i] to the message ⟨v, p⟩ node i sends this
	// round, for every i with live[i]. It may also set the entry of a
	// node that is not live to the message that node would send, and
	// leaves the other entries as they are.
	BroadcastAll(live []bool, msgs []Message)

	// DeliverRow delivers receiver v's whole round when row lists its
	// in-neighbours in ascending ID order, each sender's ID is its port
	// at v (the identity numbering), and every one of them delivers its
	// broadcast of this round, msgs[u]. It is DeliverAll(v, ds) with
	// ds[k] = Delivery{Port: row[k], Msg: msgs[row[k]]}; a population
	// may read what its own BroadcastAll recorded instead of msgs.
	DeliverRow(v int, row []int32, msgs []Message)

	// DeliverWords delivers a whole round of a network of at most 64
	// nodes: for each receiver v in recv, in ascending order, every
	// sender u in in[v] & sends, ascending, delivers at port u, and then
	// EndRound(v). Bit u of a word stands for node u; sends holds the
	// nodes that send this round (so recv ⊆ sends), and in[v] never holds
	// v. A sender outside byz delivers its broadcast msgs[u]: a row with
	// no bit of byz is DeliverRow's. A Byzantine sender b (in byz)
	// delivers *out[b][v], its message for v, and is silent towards v
	// when that entry is nil. It returns the receivers of recv whose
	// Output reports a decision at the end of the round.
	DeliverWords(recv uint64, in []uint64, sends uint64, msgs []Message, byz uint64, out [][]*Message) (decided uint64)

	// DeliverCSR delivers a whole round whose rows are those of a
	// receiver-major CSR, every row as DeliverRow takes it: for each
	// receiver v in recv, in ascending order, it is DeliverRow(v,
	// ids[starts[v]:starts[v+1]], msgs) and then EndRound(v). recv is a
	// node set of bit v&63 of word v>>6 for node v, and decided is as
	// long: the call overwrites it with the receivers of recv whose
	// Output reports a decision at the end of the round.
	DeliverCSR(recv []uint64, starts, ids []int32, msgs []Message, decided []uint64)

	// DeliverAll is Process.DeliverAll for node v.
	DeliverAll(v int, ds []Delivery)

	// EndRound is Process.EndRound for node v.
	EndRound(v int)

	// Output, Phase, Value and Reinit are node i's Process methods.
	Output(i int) (float64, bool)
	Phase(i int) int
	Value(i int) float64
	Reinit(i int, input float64)
}

// PerNode is the Population of per-node processes, indexed by node ID
// (nil at Byzantine IDs): every call goes to the node's own Process, and
// DeliverRow and each receiver of DeliverWords and DeliverCSR fill a
// Delivery slice for one DeliverAll call.
func PerNode(procs []Process) Population { return &perNode{procs: procs} }

type perNode struct {
	procs []Process
	ds    []Delivery // DeliverRow's fill, n entries once used
	row   [64]int32  // DeliverWords' rows, as rowOf lists them
}

func (a *perNode) BroadcastAll(live []bool, msgs []Message) {
	for i, ok := range live {
		if ok {
			msgs[i] = a.procs[i].Broadcast()
		}
	}
}

func (a *perNode) DeliverRow(v int, row []int32, msgs []Message) {
	if a.ds == nil {
		a.ds = make([]Delivery, len(a.procs)) // a row has at most n−1 entries
	}
	ds := a.ds[:len(row)]
	for k, u := range row {
		d := &ds[k]
		d.Port = int(u)
		d.Msg = msgs[u]
	}
	a.procs[v].DeliverAll(ds)
}

func (a *perNode) DeliverWords(recv uint64, in []uint64, sends uint64, msgs []Message, byz uint64, out [][]*Message) (decided uint64) {
	for r := recv; r != 0; r &= r - 1 {
		v := bits.TrailingZeros64(r)
		if row := in[v] & sends; row&byz == 0 {
			a.DeliverRow(v, rowOf(row, &a.row), msgs)
		} else {
			a.deliverMixed(v, row, byz, msgs, out)
		}
		if a.end(v) {
			decided |= r & -r
		}
	}
	return decided
}

// deliverMixed is DeliverWords' fold of a row with a Byzantine sender,
// kept out of line: no word round of a fault-free run takes it.
func (a *perNode) deliverMixed(v int, row, byz uint64, msgs []Message, out [][]*Message) {
	if a.ds == nil {
		a.ds = make([]Delivery, len(a.procs))
	}
	a.procs[v].DeliverAll(fillRow(a.ds, v, row, byz, msgs, out))
}

// fillRow fills ds with receiver v's deliveries from the senders in
// row, ascending, as DeliverWords delivers them: msgs[u] from an honest
// sender, *out[u][v] from a Byzantine one (in byz), none from a
// Byzantine sender whose entry is nil. It returns the filled prefix.
func fillRow(ds []Delivery, v int, row, byz uint64, msgs []Message, out [][]*Message) []Delivery {
	k := 0
	for w := row; w != 0; w &= w - 1 {
		u := bits.TrailingZeros64(w)
		m := &msgs[u]
		if byz&(1<<uint(u)) != 0 {
			if m = out[u][v]; m == nil {
				continue
			}
		}
		d := &ds[k]
		d.Port = u
		d.Msg = *m
		k++
	}
	return ds[:k]
}

func (a *perNode) DeliverCSR(recv []uint64, starts, ids []int32, msgs []Message, decided []uint64) {
	for w, word := range recv {
		var dw uint64
		for r := word; r != 0; r &= r - 1 {
			v := w<<6 | bits.TrailingZeros64(r)
			a.DeliverRow(v, ids[starts[v]:starts[v+1]], msgs)
			if a.end(v) {
				dw |= r & -r
			}
		}
		decided[w] = dw
	}
}

// end ends node v's round and reports whether its Output reports a
// decision.
func (a *perNode) end(v int) bool {
	p := a.procs[v]
	p.EndRound()
	_, ok := p.Output()
	return ok
}

// rowOf lists the set bits of w in row, ascending: a row word as
// DeliverRow takes it.
func rowOf(w uint64, row *[64]int32) []int32 {
	k := 0
	for ; w != 0; w &= w - 1 {
		row[k] = int32(bits.TrailingZeros64(w))
		k++
	}
	return row[:k]
}

func (a *perNode) DeliverAll(v int, ds []Delivery) { a.procs[v].DeliverAll(ds) }
func (a *perNode) EndRound(v int)                  { a.procs[v].EndRound() }
func (a *perNode) Output(i int) (float64, bool)    { return a.procs[i].Output() }
func (a *perNode) Phase(i int) int                 { return a.procs[i].Phase() }
func (a *perNode) Value(i int) float64             { return a.procs[i].Value() }
func (a *perNode) Reinit(i int, input float64)     { a.procs[i].Reinit(input) }

// PopulationOf is the Population of the DAC nodes ds, as
// NewDACPopulation builds them (zero at the slots it skipped, which the
// engine never addresses). BroadcastAll also copies each node's ⟨v, p⟩
// into a 16-byte-a-node start-of-round table, which DeliverRow reads
// instead of the 40-byte Messages; every other call is a static call on
// the node.
//
// BroadcastAll copies only what changed: the deliveries list each node
// whose ⟨v, p⟩ no longer matches its table entry, and BroadcastAll
// rewrites the entry and msgs[i] of those nodes alone, live or not (a
// node that is not live does not change). It copies every node on its
// first call, after a Reinit, and when msgs is not the slice it filled
// last.
func PopulationOf(ds []DAC) Population {
	return &dacPopulation{ds: ds, startTable: newStartTable(len(ds))}
}

type dacPopulation struct {
	ds []DAC
	startTable
	row [64]int32  // DeliverWords' rows, as rowOf lists them
	dl  []Delivery // DeliverWords' rows with a Byzantine sender, 64 entries once used
}

// startTable is a population's start-of-round table: each node's ⟨v, p⟩
// as BroadcastAll last copied it, and the nodes whose ⟨v, p⟩ has
// changed since (see note), which are all a BroadcastAll copies once
// due has reported a full copy done.
type startTable struct {
	sent    []vp
	changed []int32   // nodes whose ⟨v, p⟩ differs from sent, each listed once a round (see note)
	full    bool      // the next BroadcastAll copies every node
	filled  []Message // the msgs the last BroadcastAll filled
}

func newStartTable(n int) startTable {
	return startTable{sent: make([]vp, n), changed: make([]int32, 0, n), full: true}
}

// vp is one broadcast as Algorithms 1 and 2 read it.
type vp struct {
	v float64
	p int
}

// due reports whether this BroadcastAll must copy every node: on the
// first call, after a Reinit, and into a msgs slice other than the one
// filled last. It then takes the full copy as done.
func (t *startTable) due(msgs []Message) bool {
	if t.full || len(msgs) != len(t.filled) || len(msgs) > 0 && &msgs[0] != &t.filled[0] {
		t.full, t.filled = false, msgs
		return true
	}
	return false
}

// put copies node i's ⟨v, p⟩ into the table and msgs.
func (t *startTable) put(i int, v float64, p int, msgs []Message) {
	t.sent[i] = vp{v, p}
	msgs[i] = Message{Value: v, Phase: p}
}

// note lists node i in changed once its ⟨v, p⟩ differs from its table
// entry. It compares the bits of v: a jump clamped at pEnd changes v
// alone, and −0 == +0. A receiver's deliveries in a round are made back
// to back, so a node already listed this round is the list's last entry.
func (t *startTable) note(i int, v float64, p int) {
	s := &t.sent[i]
	if p == s.p && math.Float64bits(v) == math.Float64bits(s.v) {
		return
	}
	if k := len(t.changed); k > 0 && t.changed[k-1] == int32(i) {
		return
	}
	t.changed = append(t.changed, int32(i))
}

func (pop *dacPopulation) BroadcastAll(_ []bool, msgs []Message) {
	ds := pop.ds
	if pop.due(msgs) {
		for i := range ds {
			pop.put(i, ds[i].v, ds[i].p, msgs)
		}
	} else {
		for _, i := range pop.changed {
			pop.put(int(i), ds[i].v, ds[i].p, msgs)
		}
	}
	pop.changed = pop.changed[:0]
}

// DeliverRow is DAC.DeliverAll over the row, reading each sender's
// broadcast from the start-of-round table: the same fold, with the
// same-phase case inline and jumps, stale messages and the ablation
// through deliver.
func (pop *dacPopulation) DeliverRow(v int, row []int32, _ []Message) {
	d, sent := &pop.ds[v], pop.sent
	for _, u := range row {
		m := &sent[u]
		port := int(u)
		if m.p != d.p {
			d.deliver(port, m.v, m.p)
			continue
		}
		if d.ne < d.logCap && d.nr+1 < d.quorum { // hear, inlined
			if !d.extend(port) {
				d.closeRun()
				d.putPort(port)
			}
			d.nr++
			d.store(m.v)
		} else {
			if d.logging {
				d.materialize()
			}
			if d.mark(port) {
				d.nr++
				d.store(m.v)
			}
		}
		if d.p < d.pEnd && d.nr >= d.quorum {
			d.advance()
			d.maybeDecide()
		}
	}
	pop.note(v, d.v, d.p)
}

// DeliverWords is DeliverRow over each receiver's row word, or
// DeliverAll over the row's deliveries when a Byzantine sender is in
// it; DAC's EndRound does nothing, and Output reports a decision iff
// the node has decided.
func (pop *dacPopulation) DeliverWords(recv uint64, in []uint64, sends uint64, msgs []Message, byz uint64, out [][]*Message) (decided uint64) {
	for r := recv; r != 0; r &= r - 1 {
		v := bits.TrailingZeros64(r)
		if row := in[v] & sends; row&byz == 0 {
			pop.DeliverRow(v, rowOf(row, &pop.row), nil)
		} else {
			pop.deliverMixed(v, row, byz, msgs, out)
		}
		if pop.ds[v].decided {
			decided |= r & -r
		}
	}
	return decided
}

// DeliverCSR is DeliverRow over each receiver's CSR row, as DeliverWords
// is over its row word.
func (pop *dacPopulation) DeliverCSR(recv []uint64, starts, ids []int32, _ []Message, decided []uint64) {
	for w, word := range recv {
		var dw uint64
		for r := word; r != 0; r &= r - 1 {
			v := w<<6 | bits.TrailingZeros64(r)
			pop.DeliverRow(v, ids[starts[v]:starts[v+1]], nil)
			if pop.ds[v].decided {
				dw |= r & -r
			}
		}
		decided[w] = dw
	}
}

// deliverMixed is perNode.deliverMixed for the population's node v.
func (pop *dacPopulation) deliverMixed(v int, row, byz uint64, msgs []Message, out [][]*Message) {
	if pop.dl == nil {
		pop.dl = make([]Delivery, 64)
	}
	pop.DeliverAll(v, fillRow(pop.dl, v, row, byz, msgs, out))
}

func (pop *dacPopulation) DeliverAll(v int, ds []Delivery) {
	d := &pop.ds[v]
	d.DeliverAll(ds)
	pop.note(v, d.v, d.p)
}

func (pop *dacPopulation) EndRound(int)                 {}
func (pop *dacPopulation) Output(i int) (float64, bool) { return pop.ds[i].Output() }
func (pop *dacPopulation) Phase(i int) int              { return pop.ds[i].p }
func (pop *dacPopulation) Value(i int) float64          { return pop.ds[i].v }

func (pop *dacPopulation) Reinit(i int, input float64) {
	pop.ds[i].Reinit(input)
	pop.full = true
}
