package core

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestDBACPopulationMatchesPerNodeProperty: a DBAC population whose
// nodes carve their R bitsets and extreme lists from shared slices, and
// which reads honest senders off its start-of-round table, must behave
// node for node like DBACs built one at a time, on random rounds that
// interleave receivers — DeliverAll with messages of any phase around
// the receiver's (ports repeated, values including ±0, NaN and ±Inf),
// DeliverRow over honest senders, and Reinit mid-stream — compared on
// the whole state after every round. Sizes put nodes on both sides of
// the word edge (64), quorums range over 1, 2 and the paper's, and
// Byzantine gaps leave slots of the shared slices unused. A node that
// wrote a neighbour's slots would show as the neighbour's divergence.
func TestDBACPopulationMatchesPerNodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 129} {
		f := (n - 1) / 5
		for _, v := range []struct {
			name         string
			pEnd, quorum int
		}{
			{"paper", 6, ByzQuorum(n, f)},
			{"quorum=1", 6, 1},
			{"quorum=2", 40, min(2, n)},
			{"eps", PEndDBAC(1e-3, n), ByzQuorum(n, f)},
		} {
			if v.quorum > n {
				continue
			}
			inputs := make([]float64, n)
			byz := map[int]bool{}
			for i := range inputs {
				inputs[i] = rng.Float64()
				if n > 1 && rng.Intn(6) == 0 {
					byz[i] = true
				}
			}
			ds, err := NewDBACPopulation(f, v.pEnd, v.quorum, func(i int) int { return i }, inputs, func(i int) bool { return byz[i] })
			if err != nil {
				t.Fatal(err)
			}
			pop := DBACPopulationOf(ds)
			alone := make([]*DBAC, n)
			live := make([]bool, n)
			var honest []int
			for i := range alone {
				if byz[i] {
					continue
				}
				if alone[i], err = NewDBACCustom(n, f, i, v.pEnd, v.quorum, inputs[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = true
				honest = append(honest, i)
			}
			if len(honest) == 0 {
				continue
			}
			msgs, want := make([]Message, n), make([]Message, n)
			for round := 0; round < 30; round++ {
				pop.BroadcastAll(live, msgs)
				for _, i := range honest {
					want[i] = alone[i].Broadcast()
				}
				for k := 0; k < 2*len(honest); k++ {
					i := honest[rng.Intn(len(honest))]
					switch rng.Intn(10) {
					case 0:
						x := rng.Float64()
						pop.Reinit(i, x)
						alone[i].Reinit(x)
					case 1, 2, 3:
						var row []int32
						var ds []Delivery
						for _, u := range honest {
							if u != i && rng.Intn(2) == 0 {
								row = append(row, int32(u))
								ds = append(ds, Delivery{Port: u, Msg: want[u]})
							}
						}
						pop.DeliverRow(i, row, msgs)
						alone[i].DeliverAll(ds)
					default:
						chunk := make([]Delivery, rng.Intn(n+1))
						for j := range chunk {
							x := rng.Float64()
							if rng.Intn(8) == 0 {
								x = odd[rng.Intn(len(odd))]
							}
							chunk[j] = Delivery{Port: rng.Intn(n), Msg: Message{
								Value: x,
								Phase: max(0, alone[i].Phase()+rng.Intn(4)-1),
							}}
						}
						pop.DeliverAll(i, chunk)
						alone[i].DeliverAll(chunk)
					}
				}
				for _, i := range honest {
					if a, b := state(&ds[i]), state(alone[i]); a != b {
						t.Fatalf("n=%d %s round %d: node %d diverged\npop   %s\nalone %s", n, v.name, round, i, a, b)
					}
				}
			}
		}
	}
}

// TestDBACPopulationAllocs: a population is a fixed number of
// allocations — the node slice, the R bitsets and the list slots —
// whatever its size, and its word round allocates nothing.
func TestDBACPopulationAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as TestDACPopulationAllocs
	identity := func(i int) int { return i }
	for _, n := range []int{11, 4097} {
		inputs := make([]float64, n)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewDBACPopulation(2, 10, ByzQuorum(n, 2), identity, inputs, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Errorf("n=%d: population cost %g allocations, want 3", n, allocs)
		}
	}
	const n = 51
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / n
	}
	byz := uint64(0x3ff) << 25
	ds, err := NewDBACPopulation(10, 1<<20, ByzQuorum(n, 10), identity, inputs, func(i int) bool { return byz&(1<<uint(i)) != 0 })
	if err != nil {
		t.Fatal(err)
	}
	pop := DBACPopulationOf(ds)
	all := ^uint64(0) >> (64 - n)
	in, live, msgs, out := make([]uint64, n), make([]bool, n), make([]Message, n), make([][]*Message, n)
	store := []Message{{Value: 0, Phase: farFuture}, {Value: 1, Phase: farFuture}}
	for v := range in {
		in[v] = all &^ (1 << uint(v))
		live[v] = byz&(1<<uint(v)) == 0
		if !live[v] {
			out[v] = make([]*Message, n)
			for r := range out[v] {
				out[v][r] = &store[r*2/n]
			}
		}
	}
	round := func() {
		pop.BroadcastAll(live, msgs)
		pop.DeliverWords(all&^byz, in, all, msgs, byz, out)
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("word round allocated %g times, want 0", allocs)
	}
}
