package core

import (
	"math"
	"math/bits"
)

// DBACPopulationOf is the Population of the DBAC nodes ds, as
// NewDBACPopulation builds them (zero at the slots it skipped, which the
// engine never addresses). Like PopulationOf it keeps a start-of-round
// ⟨v, p⟩ table, which BroadcastAll rewrites only for the nodes whose
// state changed, and reads honest senders off it.
//
// Its word round (DeliverWords, n ≤ 64) takes a receiver's row as
// masks. The senders it counts are row &^ R among those whose message
// has phase ≥ p (for honest senders, one mask per table phase, built
// once per round in which the table changed), and the quorum closes at
// the (quorum − nr)-th of them; the rest of the row is then taken again
// at the next phase. The counted values go through STORE in port order,
// as DBAC's own fold stores them, so R_low and R_high hold the same
// values in the same slots: which of +0 and −0 max(R_low) returns, and
// whether a NaN took a slot, depend on that order. STORE reads every
// value off the table: a Byzantine slot's entry, which BroadcastAll
// never fills with a broadcast, holds that sender's value for the
// receiver at hand.
func DBACPopulationOf(ds []DBAC) Population {
	pop := &dbacPopulation{ds: ds, startTable: newStartTable(len(ds))}
	if len(ds) <= 64 {
		for i := range ds {
			if ds[i].n > 0 {
				pop.honest |= 1 << uint(i)
			}
		}
	}
	return pop
}

type dbacPopulation struct {
	ds []DBAC
	startTable

	// The word round's phase masks (see phases), at n ≤ 64.
	honest uint64     // the nodes built
	geq    [64]uint64 // geq[k]: honest nodes whose table phase is ≥ base+k
	base   int        // the least table phase
	span   int        // the greatest table phase less base; geq holds it below 64
	stale  bool       // the table changed since phases
}

func (pop *dbacPopulation) BroadcastAll(_ []bool, msgs []Message) {
	ds := pop.ds
	if pop.due(msgs) {
		for i := range ds {
			pop.put(i, ds[i].v, ds[i].p, msgs)
		}
		pop.stale = true
	} else if len(pop.changed) > 0 {
		for _, i := range pop.changed {
			pop.put(int(i), ds[i].v, ds[i].p, msgs)
		}
		pop.stale = true
	}
	pop.changed = pop.changed[:0]
}

func (pop *dbacPopulation) DeliverRow(v int, row []int32, _ []Message) {
	d := &pop.ds[v]
	for _, u := range row {
		s := &pop.sent[u]
		d.deliver(int(u), s.v, s.p)
	}
	pop.note(v, d.v, d.p)
}

func (pop *dbacPopulation) DeliverAll(v int, ds []Delivery) {
	d := &pop.ds[v]
	d.DeliverAll(ds)
	pop.note(v, d.v, d.p)
}

// DeliverCSR is DeliverRow over each receiver's CSR row.
func (pop *dbacPopulation) DeliverCSR(recv []uint64, starts, ids []int32, _ []Message, decided []uint64) {
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

// DeliverWords is the word round (see DBACPopulationOf).
func (pop *dbacPopulation) DeliverWords(recv uint64, in []uint64, sends uint64, _ []Message, byz uint64, out [][]*Message) (decided uint64) {
	if pop.stale {
		pop.phases()
	}
	for r := recv; r != 0; r &= r - 1 {
		v := bits.TrailingZeros64(r)
		pop.deliverWord(v, in[v]&sends, byz, out)
		d := &pop.ds[v]
		pop.note(v, d.v, d.p)
		if d.decided {
			decided |= r & -r
		}
	}
	return decided
}

// phases rebuilds the phase masks from the table.
func (pop *dbacPopulation) phases() {
	pop.stale = false
	lo, hi := math.MaxInt, math.MinInt
	for w := pop.honest; w != 0; w &= w - 1 {
		p := pop.sent[bits.TrailingZeros64(w)].p
		lo, hi = min(lo, p), max(hi, p)
	}
	if pop.honest == 0 {
		lo, hi = 0, 0
	}
	pop.base, pop.span = lo, hi-lo
	if pop.span >= 64 {
		return
	}
	clear(pop.geq[:pop.span+1])
	for w := pop.honest; w != 0; w &= w - 1 {
		pop.geq[pop.sent[bits.TrailingZeros64(w)].p-lo] |= w & -w
	}
	for k := pop.span - 1; k >= 0; k-- {
		pop.geq[k] |= pop.geq[k+1]
	}
}

// atLeast is the set of honest nodes whose table phase is ≥ p.
func (pop *dbacPopulation) atLeast(p int) uint64 {
	k := p - pop.base
	switch {
	case k <= 0:
		return pop.honest
	case k > pop.span:
		return 0
	case pop.span < 64:
		return pop.geq[k]
	}
	var m uint64
	for w := pop.honest; w != 0; w &= w - 1 {
		if pop.sent[bits.TrailingZeros64(w)].p >= p {
			m |= w & -w
		}
	}
	return m
}

// deliverWord delivers node v's row: the senders in row, ascending,
// Byzantine ones (in byz) with their messages in out.
func (pop *dbacPopulation) deliverWord(v int, row, byz uint64, out [][]*Message) {
	d := &pop.ds[v]
	if d.quorum < 2 {
		// The quorum rule fires after any delivery, counted or not.
		for w := row; w != 0; w &= w - 1 {
			u := bits.TrailingZeros64(w)
			if byz&(w&-w) == 0 {
				d.deliver(u, pop.sent[u].v, pop.sent[u].p)
			} else if m := out[u][v]; m != nil {
				d.deliver(u, m.Value, m.Phase)
			}
		}
		return
	}
	// With a quorum of 2 or more, nr < quorum holds between deliveries
	// below pEnd, so only a counted sender can close the quorum.
	for row != 0 {
		var bz uint64 // the Byzantine senders whose message has phase ≥ p
		for w := row & byz; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if m := out[b][v]; m != nil && m.Phase >= d.p {
				bz |= w & -w
				pop.sent[b].v = m.Value
			}
		}
		take := (row&^byz&pop.atLeast(d.p) | bz) &^ d.r[0]
		closes := d.p < d.pEnd && bits.OnesCount64(take) >= d.quorum-d.nr
		var rest uint64
		if closes {
			keep := ^uint64(0) >> (63 - nthBit(take, d.quorum-d.nr-1))
			take, rest = take&keep, row&^keep
		}
		d.r[0] |= take
		d.nr += bits.OnesCount64(take)
		pop.storeRow(v, take)
		if !closes {
			return
		}
		d.advance()
		d.maybeDecide()
		row = rest
	}
}

// nthBit is the index of the k-th lowest set bit of x, from 0; x has
// more than k set bits.
func nthBit(x uint64, k int) int {
	base := 0
	for c := bits.OnesCount8(uint8(x)); k >= c; c = bits.OnesCount8(uint8(x)) {
		k -= c
		x >>= 8
		base += 8
	}
	for ; k > 0; k-- {
		x &= x - 1
	}
	return base + bits.TrailingZeros64(x)
}

// storeRow is STORE of the table values of the senders in take at node
// v, in port order.
func (pop *dbacPopulation) storeRow(v int, take uint64) {
	d := &pop.ds[v]
	for w := take; w != 0; w &= w - 1 {
		x := pop.sent[bits.TrailingZeros64(w)].v
		d.low.add(x)
		d.high.add(-x)
	}
}

func (pop *dbacPopulation) EndRound(int)                 {}
func (pop *dbacPopulation) Output(i int) (float64, bool) { return pop.ds[i].Output() }
func (pop *dbacPopulation) Phase(i int) int              { return pop.ds[i].p }
func (pop *dbacPopulation) Value(i int) float64          { return pop.ds[i].v }

func (pop *dbacPopulation) Reinit(i int, input float64) {
	pop.ds[i].Reinit(input)
	pop.full = true
}
