package chaos

import (
	"anondyn"
	"anondyn/internal/adversary"
	"anondyn/internal/network"
)

// WrapAdversary layers the storm's connectivity windows (partitions,
// starvation) over a base adversary. Storms without such windows
// return the base unchanged, so crash/Byzantine-only storms keep the
// base adversary's exact fast paths.
func (st *Storm) WrapAdversary(base anondyn.Adversary) anondyn.Adversary {
	if len(st.cuts) == 0 && len(st.starves) == 0 {
		return base
	}
	w := &stormAdversary{base: base, cuts: st.cuts, starves: st.starves}
	w.inPlace, _ = base.(adversary.InPlace)
	return w
}

// stormAdversary filters a base adversary's per-round edge set through
// the storm's active connectivity windows. It always implements the
// InPlace fast path: the base fills the engine-owned scratch set (or is
// copied into it), then one EdgeSet.Retain pass drops the suppressed
// links in place — O(edges) per round in either representation, with
// the visit order (sender-major, hence every starvation draw) identical
// across the dense/CSR switch. Over an er2 base the log is already
// sender-major, so the filter edits it directly and no CSR view is
// built for it.
//
// The per-round scratch lives in the wrapper, so a steady round with
// active windows allocates nothing (the engine may call EdgesInto from
// its build-ahead goroutine, one round early — never from two
// goroutines at once).
type stormAdversary struct {
	base    adversary.Adversary
	inPlace adversary.InPlace // non-nil when the base has the fast path
	cuts    []cutWindow
	starves []starveWindow

	live  []*cutWindow // this round's active cuts
	rngs  []stream     // this round's starve streams, by value
	rates []float64    // and their drop rates
}

// Name labels the wrapper in traces and logs.
func (a *stormAdversary) Name() string { return a.base.Name() + "+storm" }

// Edges is the allocating fallback path.
func (a *stormAdversary) Edges(t int, view adversary.View) *network.EdgeSet {
	e := a.base.Edges(t, view).Clone()
	a.filter(t, e)
	return e
}

// EdgesInto implements the zero-extra-allocation engine path.
func (a *stormAdversary) EdgesInto(t int, view adversary.View, dst *network.EdgeSet) {
	if a.inPlace != nil {
		a.inPlace.EdgesInto(t, view, dst)
	} else {
		dst.CopyFrom(a.base.Edges(t, view))
	}
	a.filter(t, dst)
}

// Oblivious forwards the base's state-independence promise — the
// windows themselves never consult the view.
func (a *stormAdversary) Oblivious() bool { return adversary.IsOblivious(a.base) }

// filter drops every link an active window suppresses: links crossing
// an active partition cut, then each survivor with the active starve
// windows' per-round drop draws (sender-major order; see the draw-order
// contract in stream.go). Rounds with no active window return untouched.
func (a *stormAdversary) filter(t int, dst *network.EdgeSet) {
	a.live, a.rngs, a.rates = a.live[:0], a.rngs[:0], a.rates[:0]
	for i := range a.cuts {
		if w := &a.cuts[i]; t >= w.from && t < w.until {
			a.live = append(a.live, w)
		}
	}
	for _, w := range a.starves {
		if t >= w.from && t < w.until {
			a.rngs = append(a.rngs, stream{z: mix(int64(w.seed), uint64(t)*saltStarve)})
			a.rates = append(a.rates, w.rate)
		}
	}
	if len(a.live) == 0 && len(a.rngs) == 0 {
		return
	}
	dst.Retain(func(u, v int) bool {
		for _, w := range a.live {
			if w.inCut[u] != w.inCut[v] {
				return false
			}
		}
		for i := range a.rngs {
			if a.rngs[i].float64() < a.rates[i] {
				return false
			}
		}
		return true
	})
}
