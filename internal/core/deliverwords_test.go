package core

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"testing"
)

// wordCase is one input of FuzzDeliverWords: a DAC network of n ≤ 64
// nodes, each starting at a phase and value, and up to four rounds
// played from there.
type wordCase struct {
	n, quorum, pEnd int
	noJump          bool
	phases          []int  // 0…7, or 70
	values          []byte // node i's input is values[i]/255
	rounds          []wordRound
}

// wordRound is one round: its senders, its receivers and every node's
// in-row word.
type wordRound struct {
	sends, recv uint64
	in          []uint64
}

// decodeWordCase reads a wordCase off data, reading zeros past its end:
// n, the quorum, pEnd and noJump from the first four bytes, then a phase
// byte and a value byte per node, then rounds of sends, recv and n
// in-words, eight bytes each, for as long as a whole round remains. The
// words are cut to what a round can hold: nodes below n, recv within
// sends, and no node in its own in-row. A node that starts past pEnd,
// which no DAC run reaches, only sends: it stands for a phase a
// receiver can jump to, clamped.
func decodeWordCase(data []byte) wordCase {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		at++
		return data[at-1]
	}
	c := wordCase{n: 1 + int(next())%64}
	c.quorum = 1 + int(next())%c.n
	c.pEnd = int(next()) % 6
	c.noJump = next()&1 == 1
	var honest uint64 // the nodes at most at pEnd
	for i := range c.n {
		b := next()
		p := int(b & 7)
		if b == 0xff {
			p = 70
		}
		if p <= c.pEnd {
			honest |= 1 << uint(i)
		}
		c.phases = append(c.phases, p)
		c.values = append(c.values, next())
	}
	all := ^uint64(0) >> (64 - uint(c.n))
	word := func() uint64 {
		var b [8]byte
		for k := range b {
			b[k] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	for len(c.rounds) < 4 && len(data)-at >= 8*(2+c.n) {
		r := wordRound{sends: word() & all}
		r.recv = word() & r.sends & honest
		for v := range c.n {
			r.in = append(r.in, word()&all&^(1<<uint(v)))
		}
		c.rounds = append(c.rounds, r)
	}
	return c
}

// encode is decodeWordCase's inverse on a wordCase it could return.
func (c wordCase) encode() []byte {
	data := []byte{byte(c.n - 1), byte(c.quorum - 1), byte(c.pEnd), 0}
	if c.noJump {
		data[3] = 1
	}
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
	}
	return data
}

// rowCase is a wordCase of one round in which receiver 0 of n nodes
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

// FuzzDeliverWords holds the word round of a DAC population — one
// DeliverWords call for every receiver, each row word read off the
// start-of-round table — to DAC.DeliverAll on per-node DACs fed the same
// ascending Delivery lists of start-of-round messages, and to PerNode's
// DeliverWords over a third copy. After every round each node's state
// (Snap, the phase's extremes and R as a set of ports) and the decided
// mask must agree. Port order is semantics: a quorum closes mid-row and
// a jump discards what came before it, so a word round must give the
// same state, not one with the same distribution.
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
	// rounds of a complete graph.
	full := rowCase(33, 5, false, make([]int, 64)...)
	full.phases[63], full.phases[40] = 1, 2
	all := ^uint64(0)
	r := wordRound{sends: all, recv: all, in: make([]uint64, 64)}
	for v := range r.in {
		r.in[v] = all &^ (1 << uint(v))
	}
	full.rounds = []wordRound{r, r}
	f.Add(full.encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeWordCase(data)
		if len(c.rounds) == 0 {
			return
		}
		inputs := make([]float64, c.n)
		for i, b := range c.values {
			inputs[i] = float64(b) / 255
		}
		ds, err := NewDACPopulation(c.pEnd, c.quorum, c.noJump, func(i int) int { return i }, inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, alone := make([]*DAC, c.n), make([]Process, c.n)
		for i := range c.n {
			a, err := newDAC(c.n, i, c.pEnd, c.quorum, c.noJump, inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newDAC(c.n, i, c.pEnd, c.quorum, c.noJump, inputs[i])
			for _, d := range []*DAC{&ds[i], a, b} {
				d.p = c.phases[i]
				d.maybeDecide()
			}
			ref[i], alone[i] = a, b
		}
		pop, perNode := PopulationOf(ds), PerNode(alone)
		msgs, perMsgs := make([]Message, c.n), make([]Message, c.n)
		live := make([]bool, c.n)
		for round, r := range c.rounds {
			for i := range live {
				live[i] = r.sends&(1<<uint(i)) != 0
			}
			want := make([]Message, c.n)
			for i := range c.n {
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
					row = append(row, Delivery{Port: u, Msg: want[u]})
				}
				ref[v].DeliverAll(row)
				if ref[v].decided {
					wantDecided |= 1 << uint(v)
				}
			}
			got := pop.DeliverWords(r.recv, r.in, r.sends, msgs)
			gotPerNode := perNode.DeliverWords(r.recv, r.in, r.sends, perMsgs)
			if got != wantDecided || gotPerNode != wantDecided {
				t.Fatalf("round %d: decided %#x through the population, %#x through PerNode, want %#x", round, got, gotPerNode, wantDecided)
			}
			for i := range c.n {
				want := canonical(ref[i])
				if s := canonical(&ds[i]); !reflect.DeepEqual(s, want) {
					t.Fatalf("round %d: population node %d is %+v, want %+v", round, i, s, want)
				}
				if s := canonical(alone[i]); !reflect.DeepEqual(s, want) {
					t.Fatalf("round %d: PerNode node %d is %+v, want %+v", round, i, s, want)
				}
				if Snap(pop, i) != Snap(perNode, i) {
					t.Fatalf("round %d: node %d snaps %+v, PerNode %+v", round, i, Snap(pop, i), Snap(perNode, i))
				}
			}
		}
	})
}
