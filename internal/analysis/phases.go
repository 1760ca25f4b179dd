// Package analysis measures executions: it reconstructs the per-phase
// state multisets V(p) that the paper's convergence proofs reason about
// (Definitions 5–7), estimates convergence rates, summarizes sweeps, and
// renders result tables.
package analysis

import "math"

// PhaseTracker implements sim.Observer and reconstructs V(p): the
// multiset of phase-p state values across nodes. A node's phase-p state
// is the value it holds while in phase p — constant within a phase for
// DAC/DBAC — and a node that jumps over phase p′ contributes its landing
// value to V(p′), exactly as Definition 6 prescribes.
type PhaseTracker struct {
	// values[p][node] = the node's phase-p state.
	values map[int]map[int]float64
	max    int
}

// NewPhaseTracker returns an empty tracker. Seed phase 0 with the inputs
// via SetInput before the run.
func NewPhaseTracker() *PhaseTracker {
	return &PhaseTracker{values: make(map[int]map[int]float64)}
}

// SetInput records a node's initial value as its phase-0 state.
func (t *PhaseTracker) SetInput(node int, v float64) { t.set(0, node, v) }

// OnPhaseEnter implements sim.Observer.
func (t *PhaseTracker) OnPhaseEnter(node, from, to int, value float64, round int) {
	// Skipped phases take the landing value (Definition 6).
	for p := from + 1; p <= to; p++ {
		t.set(p, node, value)
	}
}

// OnDecide implements sim.Observer.
func (t *PhaseTracker) OnDecide(node int, value float64, round int) {}

func (t *PhaseTracker) set(p, node int, v float64) {
	m := t.values[p]
	if m == nil {
		m = make(map[int]float64)
		t.values[p] = m
	}
	m[node] = v
	if p > t.max {
		t.max = p
	}
}

// MaxPhase returns the highest phase any node entered.
func (t *PhaseTracker) MaxPhase() int { return t.max }

// Count returns |V(p)|.
func (t *PhaseTracker) Count(p int) int { return len(t.values[p]) }

// Range returns range(V(p)) = max − min, or 0 when |V(p)| < 2.
func (t *PhaseTracker) Range(p int) float64 {
	m := t.values[p]
	if len(m) < 2 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Ratios returns the per-phase contraction factors
// range(V(p+1))/range(V(p)) for p = 0 … MaxPhase−1. Phases whose range
// is already ≤ floor contribute NaN (the ratio is numerically
// meaningless below that resolution) and are skipped by WorstRatio.
func (t *PhaseTracker) Ratios(floor float64) []float64 {
	ratios := make([]float64, 0, t.max)
	for p := 0; p < t.max; p++ {
		r0, r1 := t.Range(p), t.Range(p+1)
		if r0 <= floor {
			ratios = append(ratios, math.NaN())
			continue
		}
		ratios = append(ratios, r1/r0)
	}
	return ratios
}

// WorstRatio returns the largest meaningful per-phase contraction factor
// — the empirical convergence rate ρ of Definition 7 — ignoring phases
// whose range is below floor. Returns 0 when no phase qualifies.
func (t *PhaseTracker) WorstRatio(floor float64) float64 {
	worst := 0.0
	for _, r := range t.Ratios(floor) {
		if !math.IsNaN(r) && r > worst {
			worst = r
		}
	}
	return worst
}

// PhasesToRange returns the first phase whose range is ≤ eps, or −1 if
// the tracked execution never got there.
func (t *PhaseTracker) PhasesToRange(eps float64) int {
	for p := 0; p <= t.max; p++ {
		if t.Count(p) > 0 && t.Range(p) <= eps {
			return p
		}
	}
	return -1
}
