package core

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"unsafe"
)

// rPorts is R as a set, ascending: the ports whose bit is set or, while
// the node logs, self and the logged ports. Nodes that hold the same R
// in different places (a lone node's plain bitset, a column of a
// population's tiled matrix, a port log) have equal rPorts.
func rPorts(d *DAC) []int {
	in := make([]bool, d.n)
	if d.logging {
		in[d.selfPort] = true
		for _, port := range logged(d) {
			in[port] = true
		}
	} else {
		for port := range in {
			in[port] = *d.word(port)&(1<<(uint(port)&63)) != 0
		}
	}
	var ports []int
	for port, ok := range in {
		if ok {
			ports = append(ports, port)
		}
	}
	return ports
}

// canonical is p's state for comparison: a DAC with R replaced by
// rPorts, anything else as it is.
func canonical(p Process) any {
	d, ok := p.(*DAC)
	if !ok {
		return p
	}
	c := *d
	c.r, c.stride, c.col = nil, 0, 0
	return struct {
		DAC
		R []int
	}{c, rPorts(d)}
}

// dacVariant is one population shape and the per-node constructor that
// builds the same node alone.
type dacVariant struct {
	name         string
	pEnd, quorum int
	noJump       bool
	single       func(n, selfPort int, input float64) (*DAC, error)
}

func dacVariants(n int) []dacVariant {
	return []dacVariant{
		{"phases", 6, CrashQuorum(n), false, func(n, sp int, x float64) (*DAC, error) { return NewDACPhases(n, sp, 6, x) }},
		{"quorum=1", 6, 1, false, func(n, sp int, x float64) (*DAC, error) { return NewDACCustom(n, sp, 6, 1, x) }},
		{"quorum=2", 40, min(2, n), false, func(n, sp int, x float64) (*DAC, error) { return NewDACCustom(n, sp, 40, min(2, n), x) }},
		{"noJump", 6, CrashQuorum(n), true, func(n, sp int, x float64) (*DAC, error) { return NewDACNoJumpPhases(n, sp, 6, x) }},
		{"eps", PEndDAC(1e-3), CrashQuorum(n), false, func(n, sp int, x float64) (*DAC, error) { return NewDAC(n, sp, x, 1e-3) }},
	}
}

// TestDACPopulationMatchesPerNodeProperty: a population whose nodes
// share one tiled R matrix must behave node for node like DACs built one
// at a time, on random delivery streams that interleave receivers —
// jumps, quorums, stale and repeated messages, the ablation, quorum 1,
// and Reinit mid-stream — compared on Snap, the stats and R as a set of
// ports after every step. The sizes put nodes on both sides of tile
// (8), word (64) and two-word edges; Byzantine gaps leave columns of
// the matrix unused. A node that wrote a tile mate's column, or cleared
// more than its own, would show as a neighbour's divergence.
func TestDACPopulationMatchesPerNodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 129} {
		for _, v := range dacVariants(n) {
			for trial := 0; trial < 2; trial++ {
				inputs := make([]float64, n)
				selfPorts := rng.Perm(n)
				byz := map[int]bool{}
				for i := range inputs {
					inputs[i] = rng.Float64()
					if n > 1 && rng.Intn(6) == 0 {
						byz[i] = true
					}
				}
				pop, err := NewDACPopulation(v.pEnd, v.quorum, v.noJump,
					func(i int) int { return selfPorts[i] }, inputs, func(i int) bool { return byz[i] })
				if err != nil {
					t.Fatal(err)
				}
				alone := make([]*DAC, n)
				var live []int
				for i := range alone {
					if byz[i] {
						continue
					}
					if alone[i], err = v.single(n, selfPorts[i], inputs[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live, i)
				}
				check := func(step string) {
					t.Helper()
					for _, i := range live {
						a, b := &pop[i], alone[i]
						if snapOf(a) != snapOf(b) {
							t.Fatalf("n=%d %s trial %d %s: node %d: %+v, alone %+v", n, v.name, trial, step, i, snapOf(a), snapOf(b))
						}
						if !reflect.DeepEqual(canonical(a), canonical(b)) {
							t.Fatalf("n=%d %s trial %d %s: node %d state diverged\npop   %+v\nalone %+v", n, v.name, trial, step, i,
								canonical(a), canonical(b))
						}
					}
				}
				check("built")
				for round := 0; round < 30 && len(live) > 0; round++ {
					for k := 0; k < 2*len(live); k++ {
						i := live[rng.Intn(len(live))]
						if rng.Intn(50) == 0 {
							x := rng.Float64()
							pop[i].Reinit(x)
							alone[i].Reinit(x)
							continue
						}
						chunk := make([]Delivery, rng.Intn(n+1))
						for j := range chunk {
							chunk[j] = Delivery{Port: rng.Intn(n), Msg: Message{
								Value: rng.Float64(),
								Phase: max(0, alone[i].Phase()+rng.Intn(4)-1),
							}}
						}
						if rng.Intn(2) == 0 {
							pop[i].DeliverAll(chunk)
						} else {
							for _, d := range chunk {
								pop[i].Deliver(d)
							}
						}
						alone[i].DeliverAll(chunk)
					}
					check("round")
				}
			}
		}
	}
}

// TestDACPopulationLayout pins the tiled layout itself: word w of node i
// is element tile(i)·words·8 + w·8 + i%8 of one matrix, so the 8 nodes
// of a tile hold word w on one 64-byte line; a lone node's R is a plain
// bitset.
func TestDACPopulationLayout(t *testing.T) {
	const n = 129 // 3 words, 17 tiles, the last one with a single node
	pop, err := NewDACPopulation(4, CrashQuorum(n), false, func(i int) int { return i }, make([]float64, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(pop[0].word(0)))
	words := (n + 63) / 64
	for i := range pop {
		for w := 0; w < words; w++ {
			got := uintptr(unsafe.Pointer(pop[i].word(64*w))) - base
			if want := uintptr(8 * (i/8*words*8 + w*8 + i%8)); got != want {
				t.Fatalf("node %d word %d at offset %d, want %d", i, w, got, want)
			}
		}
	}
	lone, err := NewDACPhases(n, 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lone.stride != 1 || lone.col != 0 || len(lone.r) != words {
		t.Errorf("lone node: stride %d col %d, %d words; want a plain %d-word bitset", lone.stride, lone.col, len(lone.r), words)
	}
}

// TestDACPopulationValidation: the population rejects what the per-node
// constructors reject and names the node; pEnd and quorum are checked at
// the first node built, so an all-Byzantine population builds nothing
// and rejects nothing.
func TestDACPopulationValidation(t *testing.T) {
	identity := func(i int) int { return i }
	skip0 := func(i int) bool { return i == 0 }
	cases := []struct {
		name         string
		pEnd, quorum int
		selfPort     func(int) int
		inputs       []float64
		skip         func(int) bool
		want         string
	}{
		{"negative pEnd", -1, 2, identity, []float64{0, 0, 0}, nil, "node 0: core: negative pEnd -1"},
		{"quorum 0", 3, 0, identity, []float64{0, 0, 0}, nil, "node 0: core: quorum 0 out of range [1,3]"},
		{"quorum > n at the first honest node", 3, 4, identity, []float64{0, 0, 0}, skip0, "node 1: core: quorum 4 out of range [1,3]"},
		{"self port", 3, 2, func(i int) int { return 3 * i }, []float64{0, 0, 0}, nil, "node 1: core: self port 3 out of range [0,3)"},
		{"input", 3, 2, identity, []float64{0, 0, 2}, nil, "node 2: core: input must lie in [0, 1]: got 2"},
	}
	for _, c := range cases {
		if _, err := NewDACPopulation(c.pEnd, c.quorum, false, c.selfPort, c.inputs, c.skip); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := NewDACPopulation(-1, 0, false, identity, []float64{0}, skip0); err != nil {
		t.Errorf("all-Byzantine population: %v", err)
	}
}

// TestDACPopulationAllocs: a population is a fixed number of
// allocations — the node slice and the matrix — whatever its size.
func TestDACPopulationAllocs(t *testing.T) {
	// Run alone, the test meets the runtime's first GC cycle inside the
	// measurement, which counts one allocation that is not the
	// population's; measure with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	identity := func(i int) int { return i }
	for _, n := range []int{9, 4097} {
		inputs := make([]float64, n)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewDACPopulation(10, CrashQuorum(n), false, identity, inputs, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("n=%d: population cost %g allocations, want 2", n, allocs)
		}
	}
}
