package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// logged decodes a logging node's port log — its entries, then the open
// run — into the ports it stands for, in logging order.
func logged(d *DAC) []int {
	var ports []int
	port := 0
	take := func(run int) {
		for ; run > 0; run-- {
			if port == d.n {
				port = 0
			}
			ports = append(ports, port)
			port++
		}
	}
	for k := int32(0); k < d.ne; k++ {
		e := int(uint16(*d.logWord(k) >> (uint(k) & 3 * 16)))
		if e&runBit == 0 {
			port = e
			take(1)
		} else {
			take(e &^ runBit)
		}
	}
	take(int(d.run))
	return ports
}

// honestValue is the state an honest sender on port broadcasts in phase:
// a function of the two, as an honest DAC node's value is fixed within a
// phase.
func honestValue(port, phase int) float64 {
	h := uint64(port)*0x9e3779b97f4a7c15 ^ uint64(phase)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h>>11) / (1 << 53)
}

// sameDAC fails unless a and b agree on everything Algorithm 1 defines:
// Snap, the phase extremes and R as a set of ports.
func sameDAC(t *testing.T, a, b *DAC, format string, args ...any) {
	t.Helper()
	if snapOf(a) != snapOf(b) || a.vmin != b.vmin || a.vmax != b.vmax {
		t.Fatalf(format+": %+v [%g,%g], alone %+v [%g,%g]", append(args,
			snapOf(a), a.vmin, a.vmax, snapOf(b), b.vmin, b.vmax)...)
	}
	if ra, rb := rPorts(a), rPorts(b); !slices.Equal(ra, rb) {
		t.Fatalf(format+": R %v, alone %v", append(args, ra, rb)...)
	}
}

// TestDACPortLogMatchesLoneProperty: the nodes of a population large
// enough to log must behave like lone nodes (which never log) on honest
// streams — a sender's value a function of its port and phase, no
// delivery on the receiver's own port, no phase past pEnd — mixing
// DeliverAll and Deliver, runs (wrapping included), scattered and
// repeated ports, stale and higher phases, the ablation and Reinit
// mid-log. Both reasons to materialize must occur: a delivery that could
// complete the quorum, and a full log.
func TestDACPortLogMatchesLoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{449, 513, 1025, 4097} {
		var nearQuorum, full int
		for _, v := range dacVariants(n) {
			inputs := make([]float64, n)
			selfPorts := rng.Perm(n)
			for i := range inputs {
				inputs[i] = rng.Float64()
			}
			pop, err := NewDACPopulation(v.pEnd, v.quorum, v.noJump, func(i int) int { return selfPorts[i] }, inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			// One whole tile and a few more: a node that wrote into a
			// tile mate's column would show as the mate's divergence.
			nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
			for len(nodes) < 14 {
				nodes = append(nodes, 8+rng.Intn(n-8))
			}
			alone := make(map[int]*DAC)
			for _, i := range nodes {
				if !pop[i].logging {
					t.Fatalf("n=%d %s: node %d does not log", n, v.name, i)
				}
				if alone[i], err = v.single(n, selfPorts[i], inputs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 300; step++ {
				i := nodes[rng.Intn(len(nodes))]
				a, b := &pop[i], alone[i]
				if rng.Intn(40) == 0 {
					x := rng.Float64()
					a.Reinit(x)
					b.Reinit(x)
					sameDAC(t, a, b, "n=%d %s step %d: node %d after Reinit", n, v.name, step, i)
					continue
				}
				var ports []int
				switch rng.Intn(4) {
				case 0, 1: // a run, possibly wrapping from n−1 to 0
					start, length := rng.Intn(n), 1+rng.Intn(n/2)
					for k := 0; k < length; k++ {
						ports = append(ports, (start+k)%n)
					}
				case 2: // scattered
					for k := rng.Intn(2 * int(a.logCap+1)); k > 0; k-- {
						ports = append(ports, rng.Intn(n))
					}
				default: // few ports, each repeated
					few := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
					for k := rng.Intn(30); k > 0; k-- {
						ports = append(ports, few[rng.Intn(len(few))])
					}
				}
				var chunk []Delivery
				for _, port := range ports {
					if port == selfPorts[i] {
						continue
					}
					phase := b.Phase()
					if r := rng.Intn(16); r == 0 {
						phase = max(0, phase-1)
					} else if r == 1 {
						phase = min(v.pEnd, phase+1+rng.Intn(2))
					}
					chunk = append(chunk, Delivery{Port: port, Msg: Message{Value: honestValue(port, phase), Phase: phase}})
				}
				if rng.Intn(2) == 0 {
					a.DeliverAll(chunk)
				} else {
					for _, dl := range chunk {
						if a.logging && dl.Msg.Phase == a.p {
							if a.nr+1 >= a.quorum {
								nearQuorum++
							} else if a.ne >= a.logCap {
								full++
							}
						}
						a.Deliver(dl)
					}
				}
				if rng.Intn(2) == 0 {
					b.DeliverAll(chunk)
				} else {
					for _, dl := range chunk {
						b.Deliver(dl)
					}
				}
				for _, j := range nodes {
					sameDAC(t, &pop[j], alone[j], "n=%d %s step %d (node %d delivered): node %d", n, v.name, step, i, j)
				}
			}
		}
		if nearQuorum == 0 || full == 0 {
			t.Errorf("n=%d: %d materializes near the quorum, %d on a full log; want both", n, nearQuorum, full)
		}
	}
}

// TestDACPortLogExactBoundary: quorum − 1 distinct ports in one phase
// (self makes the quorum) must advance a logging node on the same
// delivery as a lone node — as one run, scattered, and with a repeat
// just before the boundary, where a log that counted the repeat toward
// the quorum would advance one delivery early.
func TestDACPortLogExactBoundary(t *testing.T) {
	const n, self = 513, 100
	for _, quorum := range []int{CrashQuorum(n), 16} {
		run := make([]int, 0, quorum-1)
		for port := self + 1; len(run) < quorum-1; port = (port + 1) % n {
			run = append(run, port)
		}
		scattered := slices.Clone(run)
		rand.New(rand.NewSource(int64(quorum))).Shuffle(len(scattered), func(i, j int) {
			scattered[i], scattered[j] = scattered[j], scattered[i]
		})
		repeat := slices.Insert(slices.Clone(scattered), quorum-3, scattered[0])
		for _, c := range []struct {
			name  string
			ports []int
		}{{"run", run}, {"scattered", scattered}, {"repeat", repeat}} {
			pop, err := NewDACPopulation(5, quorum, false, func(int) int { return self }, make([]float64, n), nil)
			if err != nil {
				t.Fatal(err)
			}
			a := &pop[7]
			b, err := NewDACCustom(n, self, 5, quorum, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k, port := range c.ports {
				dl := Delivery{Port: port, Msg: Message{Value: honestValue(port, 0), Phase: 0}}
				a.Deliver(dl)
				b.Deliver(dl)
				sameDAC(t, a, b, "quorum %d %s: delivery %d (port %d)", quorum, c.name, k, port)
				if last := k == len(c.ports)-1; (a.Phase() == 1) != last {
					t.Fatalf("quorum %d %s: phase %d after delivery %d of %d", quorum, c.name, a.Phase(), k, len(c.ports))
				}
			}
			if !a.logging {
				t.Errorf("quorum %d %s: the new phase does not log", quorum, c.name)
			}
		}
	}
}

// TestDACPortLogRunWraps: a run steps from port n − 1 to port 0 in one
// entry, and materializes to the ports it passed.
func TestDACPortLogRunWraps(t *testing.T) {
	const n = 513
	pop, err := NewDACPopulation(5, CrashQuorum(n), false, func(i int) int { return i }, make([]float64, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &pop[200]
	ports := []int{n - 3, n - 2, n - 1, 0, 1, 2}
	for _, port := range ports {
		d.Deliver(Delivery{Port: port, Msg: Message{Value: honestValue(port, 0)}})
	}
	if d.ne != 1 || d.run != 5 || !slices.Equal(logged(d), ports) {
		t.Fatalf("log of %d entries, open run %d, ports %v; want one entry and a run of 5 for %v", d.ne, d.run, logged(d), ports)
	}
	d.materialize()
	want := append([]int{0, 1, 2, 200}, n-3, n-2, n-1)
	if got := rPorts(d); d.logging || d.nr != len(want) || !slices.Equal(got, want) {
		t.Errorf("materialized R %v (|R| = %d, logging %v), want %v", got, d.nr, d.logging, want)
	}
}

// TestDACPortLogRunSaturates: a run entry counts at most runMax ports;
// the port after a full run takes an entry of its own, and the log
// still decodes and materializes to every port. No honest phase gets
// here through Deliver — a run counts fewer ports than the quorum, and
// n ≤ maxLogN = runMax + 1 — so the test drives the log directly.
func TestDACPortLogRunSaturates(t *testing.T) {
	const n = maxLogN
	pop, err := NewDACPopulation(5, n, false, func(i int) int { return i }, make([]float64, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &pop[9]
	var want []int
	for k := 0; k < n+3; k++ { // every port from 0 round to n−1, then 0, 1, 2
		port := k % n
		if !d.extend(port) {
			d.closeRun()
			d.putPort(port)
		}
		want = append(want, port)
	}
	if d.ne != 3 || d.run != 2 {
		t.Fatalf("%d entries and an open run of %d, want 3 and 2", d.ne, d.run)
	}
	if e := uint16(*d.logWord(1) >> 16); e != runBit|runMax {
		t.Fatalf("second entry %#x, want a full run %#x", e, runBit|runMax)
	}
	if !slices.Equal(logged(d), want) {
		t.Fatal("the log does not decode to the ports logged")
	}
	d.materialize()
	if d.nr != n || len(rPorts(d)) != n {
		t.Errorf("materialized |R| = %d (%d ports), want every port", d.nr, len(rPorts(d)))
	}
}

// TestDACNeverLogsWithoutHonestPopulation: a lone node and a population
// with a Byzantine slot keep the bitset, so a repeated port with a new
// value — what only a Byzantine sender sends — is still ignored. So do
// populations below minLogN nodes.
func TestDACNeverLogsWithoutHonestPopulation(t *testing.T) {
	const n = 513
	identity := func(i int) int { return i }
	lone, err := NewDACPhases(n, 0, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	byz, err := NewDACPopulation(5, CrashQuorum(n), false, identity, make([]float64, n), func(i int) bool { return i == 300 })
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewDACPopulation(5, CrashQuorum(minLogN-1), false, identity, make([]float64, minLogN-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*DAC{"lone": lone, "Byzantine slot": &byz[0], "n=448": &small[0]} {
		if d.logging || d.logCap != 0 {
			t.Fatalf("%s: logs", name)
		}
		v := d.Value()
		d.Deliver(Delivery{Port: 5, Msg: Message{Value: v + 0.25, Phase: 0}})
		d.Deliver(Delivery{Port: 5, Msg: Message{Value: v - 0.5, Phase: 0}})
		if d.vmin != v || d.vmax != v+0.25 || d.nr != 2 {
			t.Errorf("%s: extremes [%g,%g], |R| = %d after a repeated port; want [%g,%g], 2", name, d.vmin, d.vmax, d.nr, v, v+0.25)
		}
	}
}

// TestDACSize pins the node's size: a population walks its nodes in
// order every round, so every byte of DAC is paid once per receiver.
func TestDACSize(t *testing.T) {
	if s := unsafe.Sizeof(DAC{}); s > 136 {
		t.Errorf("DAC is %d bytes, want at most 136", s)
	}
}
