package sim

import (
	"math"
	"slices"

	"anondyn/internal/core"
	"anondyn/internal/fault"
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

// Pieces of the word-wise delivery core.

// sortDeliveriesByPort restores the documented ascending-port delivery
// order after a node-order in-neighbor gather. Ports within one
// receiver's round are distinct (the numbering is a bijection), so the
// sorted order is unique — identical to what a walk over all n ports
// produces. slices.SortFunc is allocation-free, keeping the steady
// round at 0 allocs even under non-identity numberings.
func sortDeliveriesByPort(ds []core.Delivery) {
	slices.SortFunc(ds, func(a, b core.Delivery) int { return a.Port - b.Port })
}
