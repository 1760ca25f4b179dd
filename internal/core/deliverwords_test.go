package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// wordCase is one input of FuzzDeliverWords: a DAC or DBAC network of
// n ≤ 64 nodes, some of them Byzantine, each honest one starting at a
// phase and value, and up to four rounds played from there.
type wordCase struct {
	n, quorum, pEnd int
	noJump          bool   // DAC's jump-rule ablation
	dbac            bool   // DBAC tolerating f faults, not DAC
	f               int    // < n
	byz             uint64 // the Byzantine nodes
	phases          []int  // 0…7, or 70
	values          []byte // node i's input is values[i]/255
	rounds          []wordRound
}

// wordRound is one round: its senders, its receivers, every node's
// in-row word and each Byzantine node's message byte per receiver (see
// byzMessage), Byzantine nodes in ascending order.
type wordRound struct {
	sends, recv uint64
	in          []uint64
	byzMsgs     [][]byte
}

// farFuture is the phase far-future Byzantine messages carry, as
// fault's strategies send it.
const farFuture = int(^uint(0) >> 2)

// byzMessage decodes the message byte b a Byzantine node sends receiver
// v of n nodes: none when its low five bits are 0; otherwise the value
// they name — 1 +0, 2 −0, 3 NaN, 4 +Inf, 5 −Inf, 6 the equivocation (0
// to the lower half of the receivers, 1 to the upper), k ≥ 7 (k−7)/24 —
// at the phase its high three bits name: 0…5, 70 or farFuture.
func byzMessage(b byte, v, n int) *Message {
	var x float64
	switch k := b & 31; k {
	case 0:
		return nil
	case 1:
	case 2:
		x = math.Copysign(0, -1)
	case 3:
		x = math.NaN()
	case 4:
		x = math.Inf(1)
	case 5:
		x = math.Inf(-1)
	case 6:
		if v >= n/2 {
			x = 1
		}
	default:
		x = float64(k-7) / 24
	}
	return &Message{Value: x, Phase: [8]int{0, 1, 2, 3, 4, 5, 70, farFuture}[b>>5]}
}

// msgByte is byzMessage's inverse for a value code k and a phase code.
func msgByte(k, phase byte) byte { return phase<<5 | k }

// decodeWordCase reads a wordCase off data, reading zeros past its end:
// n, the quorum, pEnd, the flags (bit 0 noJump, bit 1 DBAC) and f from
// the first five bytes, the Byzantine word from the next eight, then a
// phase byte and a value byte per node, then rounds of sends, recv and n
// in-words, eight bytes each, and a message byte per receiver for each
// Byzantine node, for as long as a whole round remains. The words are
// cut to what a round can hold: nodes below n, at least one of them
// honest, recv within sends less the Byzantine nodes, and no node in
// its own in-row. A node that starts past pEnd, which no run reaches,
// only sends: it stands for a phase a receiver can jump to, clamped.
func decodeWordCase(data []byte) wordCase {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	word := func() uint64 {
		var b [8]byte
		for k := range b {
			b[k] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	c := wordCase{n: 1 + int(next())%64}
	c.quorum = 1 + int(next())%c.n
	c.pEnd = int(next()) % 6
	flags := next()
	c.noJump, c.dbac = flags&1 == 1, flags&2 == 2
	c.f = int(next()) % c.n
	all := ^uint64(0) >> (64 - uint(c.n))
	if c.byz = word() & all; c.byz == all {
		c.byz &^= 1
	}
	var receivers uint64 // honest nodes at most at pEnd
	for i := range c.n {
		b := next()
		p := int(b & 7)
		if b == 0xff {
			p = 70
		}
		if p <= c.pEnd {
			receivers |= 1 << uint(i)
		}
		c.phases = append(c.phases, p)
		c.values = append(c.values, next())
	}
	receivers &^= c.byz
	nb := bits.OnesCount64(c.byz)
	for len(c.rounds) < 4 && len(data)-at >= 8*(2+c.n)+nb*c.n {
		r := wordRound{sends: word() & all}
		r.recv = word() & r.sends & receivers
		for v := range c.n {
			r.in = append(r.in, word()&all&^(1<<uint(v)))
		}
		for range nb {
			m := make([]byte, c.n)
			for v := range m {
				m[v] = next()
			}
			r.byzMsgs = append(r.byzMsgs, m)
		}
		c.rounds = append(c.rounds, r)
	}
	return c
}

// encode is decodeWordCase's inverse on a wordCase it could return.
func (c wordCase) encode() []byte {
	var flags byte
	if c.noJump {
		flags |= 1
	}
	if c.dbac {
		flags |= 2
	}
	data := []byte{byte(c.n - 1), byte(c.quorum - 1), byte(c.pEnd), flags, byte(c.f)}
	data = binary.LittleEndian.AppendUint64(data, c.byz)
	for i, p := range c.phases {
		if p == 70 {
			p = 0xff
		}
		data = append(data, byte(p), c.values[i])
	}
	for _, r := range c.rounds {
		data = binary.LittleEndian.AppendUint64(data, r.sends)
		data = binary.LittleEndian.AppendUint64(data, r.recv)
		for _, w := range r.in {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		for _, m := range r.byzMsgs {
			data = append(data, m...)
		}
	}
	return data
}

// rowCase is a DAC wordCase of one round in which receiver 0 of n nodes
// hears every other node, all of them sending: phases[0] is the
// receiver's.
func rowCase(quorum, pEnd int, noJump bool, phases ...int) wordCase {
	n := len(phases)
	c := wordCase{n: n, quorum: quorum, pEnd: pEnd, noJump: noJump, phases: phases}
	for i := range n {
		c.values = append(c.values, byte(37*i+11))
	}
	all := ^uint64(0) >> (64 - uint(n))
	r := wordRound{sends: all, recv: 1, in: make([]uint64, n)}
	r.in[0] = all &^ 1
	c.rounds = []wordRound{r}
	return c
}

// byzRowCase is rowCase for DBAC tolerating f faults, with the
// Byzantine nodes in byz sending receiver 0 the message bytes msgs, in
// node order.
func byzRowCase(f, quorum, pEnd int, byz uint64, msgs []byte, phases ...int) wordCase {
	c := rowCase(quorum, pEnd, false, phases...)
	c.dbac, c.f, c.byz = true, f, byz
	for _, b := range msgs {
		m := make([]byte, c.n)
		m[0] = b
		c.rounds[0].byzMsgs = append(c.rounds[0].byzMsgs, m)
	}
	return c
}

// complete is every node receiving from every other in every one of
// rounds rounds.
func (c wordCase) complete(rounds int) wordCase {
	all := ^uint64(0) >> (64 - uint(c.n))
	c.rounds = nil
	for range rounds {
		r := wordRound{sends: all, recv: all &^ c.byz, in: make([]uint64, c.n)}
		for v := range r.in {
			r.in[v] = all &^ (1 << uint(v))
		}
		for range bits.OnesCount64(c.byz) {
			m := make([]byte, c.n)
			for v := range m {
				m[v] = msgByte(6, 7) // the equivocation at farFuture
			}
			r.byzMsgs = append(r.byzMsgs, m)
		}
		c.rounds = append(c.rounds, r)
	}
	return c
}

// state is p's state for comparison: canonical's, printed, so that NaN
// equals NaN and −0 differs from +0.
func state(p Process) string { return fmt.Sprintf("%+v", canonical(p)) }

// FuzzDeliverWords holds the word round of a population — one
// DeliverWords call for every receiver, honest rows read off the
// start-of-round table — to per-node DeliverAll fed the same ascending
// Delivery lists, and PerNode's DeliverWords over a third copy: a DAC
// network through PopulationOf and a DBAC one, its quorum any of 1…n as
// NewDBACCustom allows, through DBACPopulationOf. Byzantine senders
// deliver their message for each receiver (+0, −0, NaN, ±Inf, the 0/1
// equivocation or a plain value, at a live or far-future phase) or stay
// silent. After every round each honest node's state (DAC's with R as a
// set of ports, DBAC's whole, R_low and R_high slot by slot) and the
// decided mask must agree. Port order is semantics: a quorum closes
// mid-row and a jump discards what came before it, and which of +0 and
// −0 max(R_low) returns, and whether a NaN took a slot, depend on the
// order of STORE. So a word round must give the same state, not one with
// the same distribution.
func FuzzDeliverWords(f *testing.F) {
	// A quorum that closes mid-row, then phase-1 senders.
	f.Add(rowCase(5, 5, false, 0, 0, 0, 0, 0, 1, 1, 1, 1).encode())
	// A jump after a partial quorum, then stale and same-phase senders.
	f.Add(rowCase(5, 5, false, 0, 0, 0, 2, 0, 2, 1, 2, 0).encode())
	// Stale senders only, and one same-phase one.
	f.Add(rowCase(3, 5, false, 3, 0, 1, 2, 0, 3).encode())
	// The no-jump ablation on the jump case.
	f.Add(rowCase(5, 5, true, 0, 0, 0, 2, 0, 2, 1, 2, 0).encode())
	// A jump clamped to pEnd by a sender past it.
	f.Add(rowCase(4, 2, false, 0, 0, 5, 0, 2, 2, 1).encode())
	// Quorum 1: the self entry is a quorum, any delivery advances.
	f.Add(rowCase(1, 5, false, 0, 1, 0, 3, 2).encode())
	// Live phases spanning more than 63.
	f.Add(rowCase(3, 5, false, 0, 70, 0, 0, 1).encode())
	// Decided receivers keep hearing their phase.
	f.Add(rowCase(2, 1, false, 1, 1, 0, 1).encode())
	// The ablation over two rounds: node 1 advances in the first, and in
	// the second node 0, a phase behind, must ignore it.
	two := rowCase(3, 5, true, 0, 0, 0, 0, 0)
	two.rounds = []wordRound{
		{sends: 0x1f, recv: 0x2, in: []uint64{0, 0xc, 0, 0, 0}},
		{sends: 0x1f, recv: 0x1, in: []uint64{0x2, 0, 0, 0, 0}},
	}
	f.Add(two.encode())
	// n = 64 (bit 63 in every word), every node receiving over two
	// rounds of a complete graph, bit 63 and a mid-word node sending
	// ahead of the others' phase.
	full := rowCase(33, 5, false, make([]int, 64)...)
	full.phases[63], full.phases[40] = 1, 2
	f.Add(full.complete(2).encode())
	// DAC with Byzantine senders: a far-future jump to NaN and a silent
	// one, then a phase-1 sender.
	dacByz := rowCase(4, 5, false, 0, 0, 0, 0, 1)
	dacByz.byz = 0x6
	dacByz.rounds[0].byzMsgs = [][]byte{{msgByte(3, 7), 0, 0, 0, 0}, {0, 0, 0, 0, 0}}
	f.Add(dacByz.encode())
	// DBAC: the quorum (4) closes at the third counted sender, with a
	// Byzantine one among them; the rest of the row counts at phase 1,
	// where the phase-0 senders are stale.
	f.Add(byzRowCase(1, 4, 5, 0x4, []byte{msgByte(10, 7)}, 0, 0, 0, 1, 0, 1, 1).encode())
	// DBAC with honest table phases spanning more than 63 (a sender at
	// 70), so the phase masks give way to a scan of the table: the quorum
	// (4) closes at port 3, and at phase 1 the rest of the row counts the
	// phase-1 senders (5, 6) but not the stale one (4), and does not
	// close.
	f.Add(byzRowCase(1, 4, 5, 0x8, []byte{msgByte(10, 0)}, 0, 70, 0, 0, 0, 1, 1).encode())
	// DBAC at quorum 1 and a silent Byzantine sender.
	f.Add(byzRowCase(1, 1, 3, 0x2, []byte{0}, 0, 0, 0, 0).encode())
	// DBAC: a Byzantine −0 at port 1 before an honest +0 at port 2, the
	// list of f+1 = 2 full after the first: STORE in port order keeps
	// +0 as max(R_low), STORE of the honest values first keeps −0.
	zeros := byzRowCase(1, 4, 5, 0x2, []byte{msgByte(2, 0)}, 0, 0, 0, 0)
	zeros.values = []byte{128, 0, 0, 200}
	zeros.rounds[0].sends = 0x7
	f.Add(zeros.encode())
	// DBAC: a Byzantine NaN at port 1 takes one of the f+1 = 2 slots of
	// R_low, the list holding only the receiver's own value; after the
	// honest values, it would take none.
	nan := byzRowCase(1, 5, 5, 0x2, []byte{msgByte(3, 0)}, 0, 0, 0, 0, 0)
	nan.values = []byte{128, 0, 90, 60, 30}
	f.Add(nan.encode())
	// DBAC, sweep-byz-dense's shape: n = 16 and f = 3 equivocators in the
	// middle at farFuture, two rounds of the complete graph.
	eq := rowCase(ByzQuorum(16, 3), 5, false, make([]int, 16)...)
	eq.dbac, eq.f, eq.byz = true, 3, 0x700
	f.Add(eq.complete(2).encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeWordCase(data)
		if len(c.rounds) == 0 {
			return
		}
		inputs := make([]float64, c.n)
		for i, b := range c.values {
			inputs[i] = float64(b) / 255
		}
		isByz := func(i int) bool { return c.byz&(1<<uint(i)) != 0 }
		identity := func(i int) int { return i }
		// Three copies of the honest nodes: the reference folds, the
		// population's and PerNode's.
		ref, alone, nodes := make([]Process, c.n), make([]Process, c.n), make([]Process, c.n)
		var pop Population
		start := func(p Process, phase int) {
			switch d := p.(type) {
			case *DAC:
				d.p = phase
				d.maybeDecide()
			case *DBAC:
				d.p = phase
				d.maybeDecide()
			}
		}
		if c.dbac {
			ds, err := NewDBACPopulation(c.f, c.pEnd, c.quorum, identity, inputs, isByz)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.n {
				if isByz(i) {
					continue
				}
				a, err := NewDBACCustom(c.n, c.f, i, c.pEnd, c.quorum, inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				b, _ := NewDBACCustom(c.n, c.f, i, c.pEnd, c.quorum, inputs[i])
				ref[i], alone[i], nodes[i] = a, b, &ds[i]
			}
			pop = DBACPopulationOf(ds)
		} else {
			ds, err := NewDACPopulation(c.pEnd, c.quorum, c.noJump, identity, inputs, isByz)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.n {
				if isByz(i) {
					continue
				}
				a, err := newDAC(c.n, i, c.pEnd, c.quorum, c.noJump, inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				b, _ := newDAC(c.n, i, c.pEnd, c.quorum, c.noJump, inputs[i])
				ref[i], alone[i], nodes[i] = a, b, &ds[i]
			}
			pop = PopulationOf(ds)
		}
		for i := range c.n {
			if !isByz(i) {
				for _, p := range []Process{ref[i], alone[i], nodes[i]} {
					start(p, c.phases[i])
				}
			}
		}
		perNode := PerNode(alone)
		msgs, perMsgs := make([]Message, c.n), make([]Message, c.n)
		live := make([]bool, c.n)
		out := make([][]*Message, c.n)
		for round, r := range c.rounds {
			k := 0
			for b := c.byz; b != 0; b &= b - 1 {
				u := bits.TrailingZeros64(b)
				out[u] = make([]*Message, c.n)
				for v := range c.n {
					out[u][v] = byzMessage(r.byzMsgs[k][v], v, c.n)
				}
				k++
			}
			want := make([]Message, c.n)
			for i := range c.n {
				live[i] = r.sends&^c.byz&(1<<uint(i)) != 0
				if live[i] {
					want[i] = ref[i].Broadcast()
				}
			}
			pop.BroadcastAll(live, msgs)
			perNode.BroadcastAll(live, perMsgs)
			var wantDecided uint64
			for rv := r.recv; rv != 0; rv &= rv - 1 {
				v := bits.TrailingZeros64(rv)
				var row []Delivery
				for w := r.in[v] & r.sends; w != 0; w &= w - 1 {
					u := bits.TrailingZeros64(w)
					m := &want[u]
					if isByz(u) {
						if m = out[u][v]; m == nil {
							continue
						}
					}
					row = append(row, Delivery{Port: u, Msg: *m})
				}
				ref[v].DeliverAll(row)
				if _, ok := ref[v].Output(); ok {
					wantDecided |= 1 << uint(v)
				}
			}
			got := pop.DeliverWords(r.recv, r.in, r.sends, msgs, c.byz, out)
			gotPerNode := perNode.DeliverWords(r.recv, r.in, r.sends, perMsgs, c.byz, out)
			if got != wantDecided || gotPerNode != wantDecided {
				t.Fatalf("round %d: decided %#x through the population, %#x through PerNode, want %#x", round, got, gotPerNode, wantDecided)
			}
			for i := range c.n {
				if isByz(i) {
					continue
				}
				want := state(ref[i])
				if s := state(nodes[i]); s != want {
					t.Fatalf("round %d: population node %d is %s, want %s", round, i, s, want)
				}
				if s := state(alone[i]); s != want {
					t.Fatalf("round %d: PerNode node %d is %s, want %s", round, i, s, want)
				}
				if s, want := fmt.Sprintf("%+v", Snap(pop, i)), fmt.Sprintf("%+v", Snap(perNode, i)); s != want {
					t.Fatalf("round %d: node %d snaps %s, PerNode %s", round, i, s, want)
				}
			}
		}
	})
}
