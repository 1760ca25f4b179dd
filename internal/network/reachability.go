package network

// Reachability and the prior stability properties of §II-B, so the
// paper's comparison between (T, D)-dynaDegree and earlier conditions is
// executable:
//
//   - rooted spanning tree ([10], [17], [38]): every round's graph has a
//     node that reaches all others;
//   - T-interval connectivity ([22]): every T-round window contains a
//     stable connected spanning subgraph (with bidirectional links; we
//     check the directed analogue on the intersection graph).
//
// Figure 1's schedule separates the notions: it satisfies
// (2,1)-dynaDegree yet has rootless (empty) rounds — pinned by tests.

// ReachableFrom returns the set of nodes reachable from start via
// directed links (including start itself), as a boolean vector.
func ReachableFrom(e *EdgeSet, start int) []bool {
	e.check(start)
	n := e.N()
	seen := make([]bool, n)
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range e.OutNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// IsRoot reports whether node u reaches every other node.
func IsRoot(e *EdgeSet, u int) bool {
	seen := ReachableFrom(e, u)
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// HasRootedSpanningTree reports the per-round condition of [10],[17],[38]:
// some node reaches every other node in this round's graph.
func HasRootedSpanningTree(e *EdgeSet) bool {
	// A root must exist in every terminal strongly-connected component;
	// checking from node 0's reachable set first is a cheap heuristic,
	// but n is tiny here — test all candidates directly.
	for u := 0; u < e.N(); u++ {
		if IsRoot(e, u) {
			return true
		}
	}
	return false
}

// StronglyConnected reports whether every node reaches every other.
func StronglyConnected(e *EdgeSet) bool {
	n := e.N()
	if n == 1 {
		return true
	}
	// Forward reachability from 0 and reachability TO 0 (via the
	// transpose) suffice.
	fwd := ReachableFrom(e, 0)
	for _, s := range fwd {
		if !s {
			return false
		}
	}
	rev := reachableFromTranspose(e, 0)
	for _, s := range rev {
		if !s {
			return false
		}
	}
	return true
}

func reachableFromTranspose(e *EdgeSet, start int) []bool {
	n := e.N()
	seen := make([]bool, n)
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range e.InNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// EveryRoundRooted reports whether every round of the trace satisfies
// the rooted-spanning-tree property.
func EveryRoundRooted(tr Trace) bool {
	for _, e := range tr {
		if !HasRootedSpanningTree(e) {
			return false
		}
	}
	return true
}

// TIntervalConnected reports the stability property of [22]: for every
// window of T consecutive rounds, the INTERSECTION of the window's
// graphs (the links stable throughout the window) is strongly connected.
// Kuhn et al. assume bidirectional links; on directed graphs strong
// connectivity of the stable subgraph is the natural analogue.
func TIntervalConnected(tr Trace, t int) bool {
	if t < 1 {
		panic("network: interval T must be ≥ 1")
	}
	if len(tr) < t {
		return true // vacuous, matching the dynaDegree checker
	}
	for start := 0; start+t <= len(tr); start++ {
		stable := tr[start].Clone()
		for r := start + 1; r < start+t; r++ {
			stable.IntersectWith(tr[r])
		}
		if !StronglyConnected(stable) {
			return false
		}
	}
	return true
}
