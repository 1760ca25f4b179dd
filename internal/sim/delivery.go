package sim

import (
	"math"
	"slices"

	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// neverCrashes marks nodes without a scheduled crash in the dense
// crash-round arrays: every round index compares below it, so the
// alive checks need no special case.
const neverCrashes = math.MaxInt

// fillCrashState flattens a crash schedule into dense per-node arrays —
// the round loop and the per-delivery partial-crash check never probe
// the schedule map. rounds[i] holds node i's crash round (neverCrashes
// when unscheduled): "alive in t" is t ≤ rounds[i], "fully alive
// through t" is t < rounds[i], matching fault.Schedule's semantics.
func fillCrashState(rounds []int, info []fault.Crash, s fault.Schedule) {
	for i := range rounds {
		rounds[i] = neverCrashes
		info[i] = fault.Crash{}
	}
	for node, c := range s {
		rounds[node] = c.Round
		info[node] = c
	}
}

// Pieces of the word-wise delivery core shared by every execution of
// the round (sequential range, parallel ranges, scatter).

// sortDeliveriesByPort restores the documented ascending-port delivery
// order after a node-order in-neighbor gather. Ports within one
// receiver's round are distinct (the numbering is a bijection), so the
// sorted order is unique — identical to what a walk over all n ports
// produces. slices.SortFunc is allocation-free, keeping the steady
// round at 0 allocs even under non-identity numberings.
func sortDeliveriesByPort(ds []core.Delivery) {
	slices.SortFunc(ds, func(a, b core.Delivery) int { return a.Port - b.Port })
}

// countLost computes one round's adversary-suppressed message count
// word-wise: first a bitmap of the receivers able to receive in round t
// (not Byzantine, fully alive through the round), then, per alive
// sender, a popcount of the mask bits its out-row does not cover. This
// replaces the former O(n²) Has-probe fallback for faulted
// configurations; mask must be MaskWords(n) words and is overwritten.
func countLost(t, n int, isByz []bool, crashRound []int, edges *network.EdgeSet, mask []uint64) int {
	clear(mask)
	for v := 0; v < n; v++ {
		if isByz[v] || t >= crashRound[v] {
			continue
		}
		mask[v/64] |= 1 << (uint(v) % 64)
	}
	lost := 0
	for u := 0; u < n; u++ {
		// A sender counts while it is Byzantine or still alive at the
		// start of round t (its crash round still broadcasts).
		if !isByz[u] && t > crashRound[u] {
			continue
		}
		miss := edges.OutMissing(u, mask)
		if mask[u/64]&(1<<(uint(u)%64)) != 0 {
			miss-- // (u, u) is never a link; u "missing" itself is no loss
		}
		lost += miss
	}
	return lost
}
