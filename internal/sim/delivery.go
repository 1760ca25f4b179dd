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

// countLost computes one round's adversary-suppressed message count:
// the (alive sender, eligible receiver) pairs with no link between
// them, where a receiver is eligible in round t when it is not
// Byzantine and fully alive through the round, and a sender counts
// while it is Byzantine or still alive at the start of round t (its
// crash round still broadcasts). Dense sets fold a bitmap of the
// eligible receivers against each sender's out-row, word-wise; mask
// must be MaskWords(n) words and is overwritten.
//
// Sparse sets count from the other side, off the receiver-major view
// the gather already built: the senders are counted once, and each
// eligible receiver subtracts itself and its alive in-neighbors —
// O(n + edges), and the sender-major view is never forced. (OutMissing
// on a sparse set popcounts the whole mask per call, which as a
// per-sender loop is Θ(n²/64) a round.)
func countLost(t, n int, isByz []bool, crashRound []int, edges *network.EdgeSet, mask []uint64) int {
	sends := func(u int) bool { return isByz[u] || t <= crashRound[u] }
	receives := func(v int) bool { return !isByz[v] && t < crashRound[v] }
	lost := 0
	if edges.IsSparse() {
		senders := 0
		for u := 0; u < n; u++ {
			if sends(u) {
				senders++
			}
		}
		inStarts, inIDs := edges.InCSR()
		for v := 0; v < n; v++ {
			if !receives(v) {
				continue
			}
			// An eligible receiver is itself a sender, and (v, v) is never a
			// link: v "missing" itself is no loss.
			miss := senders - 1
			for _, u := range inIDs[inStarts[v]:inStarts[v+1]] {
				if sends(int(u)) {
					miss--
				}
			}
			lost += miss
		}
		return lost
	}
	clear(mask)
	for v := 0; v < n; v++ {
		if receives(v) {
			mask[v/64] |= 1 << (uint(v) % 64)
		}
	}
	for u := 0; u < n; u++ {
		if !sends(u) {
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
