package core

import "math"

// StaleEntry returns the first node whose entry in pop's start-of-round
// table, or in msgs, differs from a full recopy of the node's ⟨v, p⟩,
// comparing the bits of v, and -1 when none does. pop must come from
// PopulationOf.
func StaleEntry(pop Population, msgs []Message) int {
	dp := pop.(*dacPopulation)
	same := func(v float64, p int, d *DAC) bool {
		return p == d.p && math.Float64bits(v) == math.Float64bits(d.v)
	}
	for i := range dp.ds {
		d, m := &dp.ds[i], &msgs[i]
		if !same(dp.sent[i].v, dp.sent[i].p, d) || !same(m.Value, m.Phase, d) || m.History != nil {
			return i
		}
	}
	return -1
}
