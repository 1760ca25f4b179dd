package network

import "fmt"

// Static topology generators. These build the "base" communication graph
// G(V, E) of §II-B — the capability graph when every link is reliable —
// which adversaries then thin out round by round.

// Complete returns the complete directed graph on n nodes (no self-loops).
func Complete(n int) *EdgeSet {
	e := NewEdgeSet(n)
	e.FillComplete()
	return e
}

// Ring returns the directed cycle 0→1→…→n−1→0.
func Ring(n int) *EdgeSet {
	e := NewEdgeSet(n)
	for u := 0; u < n; u++ {
		e.Add(u, (u+1)%n)
	}
	return e
}

// InRegularInto overwrites e, without allocating, with the directed
// graph where every node has exactly d incoming links, from the d
// cyclically-preceding nodes shifted by offset. Varying offset between
// rounds makes the in-neighbor sets rotate, which is how the rotating
// adversaries guarantee distinctness across windows.
//
// Receiver v hears from (v+offset+1) mod n, (v+offset+2) mod n, …,
// skipping v itself, and the links go to the log in that order, receiver
// by receiver. The sender steps with a wrap compare rather than a
// modulo, and every link is in range and no self-loop by construction,
// so it is appended unchecked.
func InRegularInto(e *EdgeSet, d, offset int) {
	n := e.N()
	if d < 0 || d > n-1 {
		panic(fmt.Sprintf("network: in-degree %d out of range [0,%d]", d, n-1))
	}
	e.Reset()
	first := ((offset+1)%n + n) % n // v's first sender, for v = 0
	for v := 0; v < n; v++ {
		u := first
		for added := 0; added < d; {
			if u != v {
				e.AddUnchecked(u, v)
				added++
			}
			if u++; u == n {
				u = 0
			}
		}
		if first++; first == n {
			first = 0
		}
	}
}

// GroupComplete returns the graph whose links are exactly the complete
// graphs within each listed group (no cross-group links). Used by the
// impossibility constructions of Theorems 9 and 10.
func GroupComplete(n int, groups ...[]int) *EdgeSet {
	e := NewEdgeSet(n)
	GroupCompleteInto(e, groups...)
	return e
}

// GroupCompleteInto overwrites e with the GroupComplete graph of its
// size. Callers passing a pre-built [][]int slice (`groups...`) incur no
// allocation.
func GroupCompleteInto(e *EdgeSet, groups ...[]int) {
	e.Reset()
	for _, g := range groups {
		for _, u := range g {
			for _, v := range g {
				if u != v {
					e.Add(u, v)
				}
			}
		}
	}
}
