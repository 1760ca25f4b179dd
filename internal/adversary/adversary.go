// Package adversary implements dynamic message adversaries (§II-A): for
// every round the adversary chooses the set of directed links E(t) that
// deliver reliably; every other message is lost. Adversaries may be
// adaptive — the model lets them inspect nodes' internal states at the
// start of the round — which the View interface exposes.
package adversary

import (
	"anondyn/internal/core"
	"anondyn/internal/network"
)

// View is the read-only window an adversary gets into the execution at
// the start of a round.
type View interface {
	// N returns the network size.
	N() int
	// Snapshot returns node i's public state at the start of the round.
	Snapshot(i int) core.Snapshot
}

// Adversary chooses E(t) for every round t.
type Adversary interface {
	// Name identifies the adversary in traces, tables and logs.
	Name() string
	// Edges returns the reliable directed link set for round t. The
	// returned set must be over view.N() nodes; it may be shared across
	// calls only if the caller never mutates it (the engine does not).
	Edges(t int, view View) *network.EdgeSet
}

// InPlace is the optional zero-allocation extension of Adversary:
// EdgesInto overwrites dst — an engine-owned scratch set over view.N()
// nodes — with E(t) instead of allocating a fresh set. The engine
// probes for it once per execution and falls back to Edges for
// adversaries that do not implement it, so third-party adversaries keep
// working unchanged. Every adversary in this package that would
// otherwise allocate per round implements it; fixed-graph adversaries
// (Static, Periodic, SplitGroups, the trace replay) intentionally do
// not — they return prebuilt sets by pointer, which is cheaper than any
// copy into scratch.
//
// When the adversary is also Oblivious, the engine may call EdgesInto on
// a goroutine of its own, one round early: E(t+1) is built while round t
// delivers. Calls still never overlap and still arrive once per round in
// strictly increasing t, so a seeded stream draws exactly as in a
// sequential run; but EdgesInto must not touch state that the round in
// progress mutates (the processes, the view — which an oblivious
// adversary does not read anyway — or anything a caller shares with
// them).
type InPlace interface {
	Adversary
	EdgesInto(t int, view View, dst *network.EdgeSet)
}

// Reseeder is implemented by randomized adversaries (and Byzantine
// strategies) whose stream can be rewound to the deterministic state of
// a freshly constructed instance with the given seed. Compiled
// scenarios reseed per run so one instance can serve a whole
// Monte-Carlo batch without losing reproducibility.
type Reseeder interface {
	Reseed(seed int64)
}

// Oblivious is the optional state-independence seam: an adversary
// returning true promises that Edges/EdgesInto never consult the view's
// snapshots — E(t) is a function of the round number (and any internal
// seed) only. The engines exploit the promise by skipping the per-round
// state snapshot entirely when nothing else (a Byzantine strategy)
// reads the view, which removes the last O(n)-per-round cost that does
// not scale with the edge count — and, for in-place adversaries, by
// rendering E(t+1) ahead on another goroutine while round t delivers
// (see InPlace). Obliviousness is a method rather than a bare marker
// interface so wrappers can answer per-instance from what they wrap.
type Oblivious interface {
	Adversary
	// Oblivious reports whether this instance ignores view snapshots.
	Oblivious() bool
}

// IsOblivious reports whether the adversary declares itself
// state-independent. Adversaries without the seam are conservatively
// treated as adaptive.
func IsOblivious(a Adversary) bool {
	o, ok := a.(Oblivious)
	return ok && o.Oblivious()
}

// staticView adapts a plain size (no state access) to View for
// adversaries evaluated outside an engine, e.g. when pre-rendering a
// trace for the dynaDegree checker.
type staticView int

func (v staticView) N() int                     { return int(v) }
func (v staticView) Snapshot(int) core.Snapshot { return core.Snapshot{} }

// SizeView returns a View with n nodes and zero-valued snapshots, for
// rendering oblivious adversaries outside a simulation.
func SizeView(n int) View { return staticView(n) }
