package adversary

import (
	"fmt"
	"sort"

	"anondyn/internal/network"
)

// Clustered is an adaptive starving adversary: in every round it reads
// the nodes' current state values, groups the value-sorted lower half and
// upper half into two internally-complete clusters, and only every
// period-th round does it deliver any cross-cluster links (a complete
// round). Keeping low values with low values means intra-cluster
// averaging barely shrinks the global range, so essentially all progress
// toward ε-agreement happens on the sparse complete rounds — the
// worst-case shape rounds ≈ T · p_end of §VII (experiment E4).
//
// The trace satisfies (period, n−1)-dynaDegree (every window of `period`
// rounds contains a complete round) while windows shorter than the period
// can have degree as low as ⌊n/2⌋−1.
type Clustered struct {
	period int

	// scratch reused across rounds by EdgesInto
	sorter valueSorter
	groups [2][]int
}

// valueSorter stably orders node IDs by their snapshot value. Held by
// pointer inside an adversary so sort.Stable sees a persistent
// interface value and the per-round sort allocates nothing.
type valueSorter struct {
	order []int
	vals  []float64
}

func (s *valueSorter) Len() int      { return len(s.order) }
func (s *valueSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *valueSorter) Less(a, b int) bool {
	return s.vals[s.order[a]] < s.vals[s.order[b]]
}

// resize readies the scratch for n nodes.
func (s *valueSorter) resize(n int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.vals = make([]float64, n)
	}
	s.order = s.order[:n]
	s.vals = s.vals[:n]
}

// NewClustered builds the adversary; period ≥ 1 is the spacing of
// complete rounds (period = 1 degenerates to the complete adversary).
func NewClustered(period int) (*Clustered, error) {
	if period < 1 {
		return nil, fmt.Errorf("adversary: cluster period must be ≥ 1, got %d", period)
	}
	return &Clustered{period: period}, nil
}

// Name implements Adversary.
func (c *Clustered) Name() string { return fmt.Sprintf("clustered(T=%d)", c.period) }

// Period returns the spacing of complete rounds.
func (c *Clustered) Period() int { return c.period }

// Edges implements Adversary.
func (c *Clustered) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	c.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace.
func (c *Clustered) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	if (t+1)%c.period == 0 {
		dst.FillComplete()
		return
	}
	// Sort nodes by current value; crashed nodes sort with their last
	// value, which is harmless (they send nothing anyway).
	c.sorter.resize(n)
	for i := 0; i < n; i++ {
		c.sorter.order[i] = i
		c.sorter.vals[i] = view.Snapshot(i).Value
	}
	sort.Stable(&c.sorter)
	half := (n + 1) / 2
	c.groups[0], c.groups[1] = c.sorter.order[:half], c.sorter.order[half:]
	network.GroupCompleteInto(dst, c.groups[:]...)
}

// Starve is an adaptive adversary targeting DAC's convergence: it always
// lets each fault-free node hear from exactly D distinct neighbors per
// round, choosing as senders the D nodes whose values are *closest* to
// the receiver's own value. Quorums fill, phases advance — but each
// average moves the state as little as the degree bound permits. Used to
// probe how tight the rate-1/2 guarantee is (experiment E1's adversary
// axis).
type Starve struct {
	d int

	// scratch reused across rounds by EdgesInto
	sorter starveSorter
}

// starveSorter stably orders candidate senders by distance to the
// receiver's value (ties by node ID). dist is indexed by node ID.
type starveSorter struct {
	cand []int
	dist []float64
}

func (s *starveSorter) Len() int      { return len(s.cand) }
func (s *starveSorter) Swap(a, b int) { s.cand[a], s.cand[b] = s.cand[b], s.cand[a] }
func (s *starveSorter) Less(a, b int) bool {
	da, db := s.dist[s.cand[a]], s.dist[s.cand[b]]
	if da != db {
		return da < db
	}
	return s.cand[a] < s.cand[b]
}

// NewStarve builds the adversary with per-round in-degree d ≥ 1.
func NewStarve(d int) (*Starve, error) {
	if d < 1 {
		return nil, fmt.Errorf("adversary: starve degree must be ≥ 1, got %d", d)
	}
	return &Starve{d: d}, nil
}

// Name implements Adversary.
func (s *Starve) Name() string { return fmt.Sprintf("starve(d=%d)", s.d) }

// Edges implements Adversary.
func (s *Starve) Edges(t int, view View) *network.EdgeSet {
	e := network.NewEdgeSet(view.N())
	s.EdgesInto(t, view, e)
	return e
}

// EdgesInto implements InPlace.
func (s *Starve) EdgesInto(t int, view View, dst *network.EdgeSet) {
	n := view.N()
	d := s.d
	if d > n-1 {
		d = n - 1
	}
	dst.Reset()
	if cap(s.sorter.cand) < n {
		s.sorter.cand = make([]int, 0, n)
		s.sorter.dist = make([]float64, n)
	}
	s.sorter.dist = s.sorter.dist[:n]
	for v := 0; v < n; v++ {
		vv := view.Snapshot(v).Value
		s.sorter.cand = s.sorter.cand[:0]
		for u := 0; u < n; u++ {
			if u != v {
				s.sorter.cand = append(s.sorter.cand, u)
				s.sorter.dist[u] = abs(view.Snapshot(u).Value - vv)
			}
		}
		// closest-first by |value_u − value_v|, ties by ID
		sort.Stable(&s.sorter)
		for i := 0; i < d; i++ {
			dst.Add(s.sorter.cand[i], v)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
