package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The DESIGN.md ablation: R_low/R_high as bounded flat slices (what
// Algorithm 2's STORE implements) versus the naive "keep everything,
// sort, index" alternative. The bounded variant is what limited
// bandwidth forces on the algorithm; these benchmarks quantify what it
// also saves computationally per phase.

func benchValues(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	return vals
}

func BenchmarkBoundedStore(b *testing.B) {
	for _, f := range []int{1, 4, 16} {
		vals := benchValues(256)
		b.Run(quorumName(f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := newBoundedLow(f + 1)
				hi := newBoundedHigh(f + 1)
				for _, v := range vals {
					lo.add(v)
					hi.add(v)
				}
				if lo.max() < 0 || hi.min() > 1 {
					b.Fatal("impossible extremes")
				}
			}
		})
	}
}

func BenchmarkFullSortStore(b *testing.B) {
	for _, f := range []int{1, 4, 16} {
		vals := benchValues(256)
		b.Run(quorumName(f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				all := make([]float64, 0, len(vals))
				all = append(all, vals...)
				sort.Float64s(all)
				maxLow := all[f]
				minHigh := all[len(all)-f-1]
				if maxLow < 0 || minHigh > 1 {
					b.Fatal("impossible extremes")
				}
			}
		})
	}
}

func quorumName(f int) string {
	switch f {
	case 1:
		return "f=1"
	case 4:
		return "f=4"
	default:
		return "f=16"
	}
}

// BenchmarkDACDeliver measures the per-message cost of the DAC state
// machine at a realistic size.
func BenchmarkDACDeliver(b *testing.B) {
	n := 25
	d, err := NewDACPhases(n, 0, 1<<30, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	vals := benchValues(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := i%(n-1) + 1
		d.Deliver(Delivery{Port: port, Msg: Message{Value: vals[port], Phase: d.Phase()}})
	}
}

// BenchmarkDBACDeliver measures the per-message cost of the DBAC state
// machine (bounded multiset maintenance included).
func BenchmarkDBACDeliver(b *testing.B) {
	n, f := 25, 4
	d, err := NewDBACPhases(n, f, 0, 1<<30, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	vals := benchValues(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := i%(n-1) + 1
		d.Deliver(Delivery{Port: port, Msg: Message{Value: vals[port], Phase: d.Phase()}})
	}
}

// BenchmarkDeliverAll measures the bulk seam the way the engine drives
// it: one op is one round over a whole fleet, every node folding one
// small batch of same-phase deliveries out of a reused scratch slice.
// DAC runs at the repo benchmark's sparse shape (n = 16385, 8 in-links,
// 33 MB of R bitsets, so each node's state is cold when its turn comes):
// once built node by node, once (DAC/tiled) as the population a
// Scenario builds, whose R vectors interleave 8 nodes to a cache line.
// Receiver v hears from ports v+1+i+j·n/8: consecutive receivers hit
// the same 8 words of R, so a tile's 8 receivers share 8 lines in the
// tiled row and touch 64 in the per-node one — the rotating-graph case
// the tiling is for. The population also logs its ports: the 8 ports
// (not consecutive, so 8 entries a round) fill a node's n/16-entry log
// in its first 128 rounds of a phase, which materializes then, and the
// quorum (8193) ends the phase after 1024 rounds — so a long run of the
// row prices ⅛ log and ⅞ bitset. DBAC at the dense Byzantine sweep's (n = 51, f = 10, every
// other node delivering) — once on uniform random values, where most
// deliveries still displace a held extreme early in a phase, and once
// (DBACEquiv) with the f middle ports claiming the extremes 0 and 1
// alternately, as equivocators do: R_low and R_high then fill with
// extremes at once and nearly every honest value is a one-compare
// reject, the case the remembered extreme index exists for.
func BenchmarkDeliverAll(b *testing.B) {
	round := func(b *testing.B, n, deg int, fleet []Process, vals []float64) {
		ds := make([]Delivery, deg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for v, p := range fleet {
				phase := p.Phase()
				for j := range ds {
					port := (v + 1 + i + j*(n/deg)) % n // distinct ports, rotating with the round
					if port == v {
						port = (port + 1) % n
					}
					ds[j] = Delivery{Port: port, Msg: Message{Value: vals[port], Phase: phase}}
				}
				p.DeliverAll(ds)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fleet)*deg), "ns/edge")
	}
	const dacN, dacDeg = 16385, 8
	b.Run("DAC", func(b *testing.B) {
		fleet := make([]Process, dacN)
		for i := range fleet {
			d, err := NewDACPhases(dacN, i, 1<<30, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			fleet[i] = d
		}
		round(b, dacN, dacDeg, fleet, benchValues(dacN))
	})
	b.Run("DAC/tiled", func(b *testing.B) {
		pop, err := NewDACPopulation(1<<30, CrashQuorum(dacN), false,
			func(i int) int { return i }, slices.Repeat([]float64{0.5}, dacN), nil)
		if err != nil {
			b.Fatal(err)
		}
		fleet := make([]Process, dacN)
		for i := range fleet {
			fleet[i] = &pop[i]
		}
		round(b, dacN, dacDeg, fleet, benchValues(dacN))
	})
	dbac := func(equivocated bool) func(b *testing.B) {
		return func(b *testing.B) {
			const n, f, deg = 51, 10, 50
			fleet := make([]Process, n)
			for i := range fleet {
				d, err := NewDBACPhases(n, f, i, 1<<30, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				fleet[i] = d
			}
			vals := benchValues(n)
			if equivocated {
				for port := n / 2; port < n/2+f; port++ {
					vals[port] = float64(port & 1)
				}
			}
			round(b, n, deg, fleet, vals)
		}
	}
	b.Run("DBAC", dbac(false))
	b.Run("DBACEquiv", dbac(true))
}
