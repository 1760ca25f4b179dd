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
// skipping v itself. A sparse set gets its receiver-major view written
// directly, each row its d senders ascending — the run of senders
// rotated where it wraps past n−1 — and its log derived from the view
// only if something reads or changes it (see csrState); a dense set
// gets the bits. The sender steps with a wrap compare rather than a
// modulo, and every link is in range and no self-loop by construction,
// so it is set unchecked.
func InRegularInto(e *EdgeSet, d, offset int) {
	n := e.N()
	if d < 0 || d > n-1 {
		panic(fmt.Sprintf("network: in-degree %d out of range [0,%d]", d, n-1))
	}
	e.Reset()
	first := ((offset+1)%n + n) % n // v's first sender, for v = 0
	if e.csr != nil {
		e.csr.inRegular(d, first)
		return
	}
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

// inRegular writes InRegularInto's receiver-major view into a reset
// sparse set, v's first sender being first for v = 0. Receiver v's
// senders are the span of m nodes from s = first+v (mod n), v left out:
// m is d+1 when v falls in the span's first d nodes, which, as v − s
// is the same for every v, holds for every row or for none. Each row is
// listed ascending, the part of a wrapping span below s first.
func (c *csrState) inRegular(d, first int) {
	n := len(c.inStart) - 1
	m := d
	if (n-first)%n < d {
		m++
	}
	c.inList = growInt32(c.inList, n*d)
	start, list := c.inStart, c.inList
	k := 0
	s := first
	for v := 0; v < n; v++ {
		start[v] = int32(k)
		if end := s + m; end <= n && m == d { // v is not in the span
			row := list[k : k+d]
			for j := range row {
				row[j] = int32(s + j)
			}
			k += d
		} else {
			k = inRegularRow(list, k, v, s, end, n)
		}
		if s++; s == n {
			s = 0
		}
	}
	start[n] = int32(k)
	c.built, c.edges, c.fromView = viewIn, k, true
}

// inRegularRow writes the row of receiver v whose span is s…end−1, end
// past n where it wraps, at list[k:], ascending and without v, and
// returns the end of the row.
func inRegularRow(list []int32, k, v, s, end, n int) int {
	if end > n {
		for u := 0; u < end-n; u++ {
			if u != v {
				list[k] = int32(u)
				k++
			}
		}
		end = n
	}
	for u := s; u < end; u++ {
		if u != v {
			list[k] = int32(u)
			k++
		}
	}
	return k
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
