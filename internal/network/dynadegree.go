package network

// This file implements Definition 1, the (T, D)-dynaDegree stability
// property: a dynamic graph satisfies it when, for every window of T
// consecutive rounds, every fault-free node has incoming links from at
// least D distinct neighbors somewhere in the window.

// Trace is a finite prefix of a dynamic graph: Trace[t] = E(t).
type Trace []*EdgeSet

// MinTForDegree returns the smallest window length T ≥ 1 for which the
// trace satisfies (T, D)-dynaDegree, or 0 when even T = len(trace) fails.
// Satisfaction is monotone in T (larger windows only add links), so a
// binary search over T is sound.
func MinTForDegree(trace Trace, faultFree []int, d int) int {
	if len(trace) == 0 {
		return 1
	}
	lo, hi := 1, len(trace)
	if MaxDynaDegree(trace, faultFree, hi) < d {
		return 0
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if MaxDynaDegree(trace, faultFree, mid) >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MaxDynaDegree returns the largest D such that the trace satisfies
// (T, D)-dynaDegree for the given fault-free set, i.e. the minimum over
// all T-windows and all fault-free nodes of the distinct-in-neighbor
// count. Links count as Definition 1 counts them: the in-neighbor need
// not be fault-free, so a link from a Byzantine node counts, and so does
// a link from a crashed node, which carries nothing. A measured
// (T, ⌊n/2⌋) therefore does not by itself promise that DAC terminates:
// with n = 5, nodes 0 and 1 crashed silently at round 0 and every round
// {0, 1} → {2, 3, 4}, the degree is 2 = ⌊n/2⌋ and no survivor ever
// hears anyone (pinned by TestDynaDegreeCountsCrashedSenders). A trace
// shorter than T yields n−1 (vacuous truth capped at the model maximum,
// since D ≤ n−1 by definition); an empty trace yields 0.
func MaxDynaDegree(trace Trace, faultFree []int, t int) int {
	if t < 1 {
		panic("network: dynaDegree window T must be ≥ 1")
	}
	if len(trace) == 0 || len(trace) < t {
		if len(trace) == 0 {
			return 0
		}
		return trace[0].N() - 1
	}
	n := trace[0].N()
	words := (n + wordBits - 1) / wordBits
	acc := make([]uint64, words)
	selfWord := make([]uint64, words)

	worst := n - 1
	for start := 0; start+t <= len(trace); start++ {
		for _, v := range faultFree {
			for i := range acc {
				acc[i] = 0
			}
			for r := start; r < start+t; r++ {
				trace[r].InBitsInto(v, acc)
			}
			// Self-loops never occur, but mask defensively so a buggy
			// adversary cannot inflate the degree with (v, v).
			for i := range selfWord {
				selfWord[i] = 0
			}
			selfWord[v/wordBits] = 1 << (uint(v) % wordBits)
			deg := 0
			for i := range acc {
				deg += popCount(acc[i] &^ selfWord[i])
			}
			if deg < worst {
				worst = deg
				if worst == 0 {
					return 0
				}
			}
		}
	}
	return worst
}
