package network

import (
	"fmt"
	"slices"
)

// SparseThreshold is the node count at which NewEdgeSetAuto switches
// from the dense bit-matrix representation to the sparse CSR one. The
// dense matrices cost 2·n·⌈n/64⌉ words regardless of how many links a
// round actually has: at n=4097 that is ~4.3 MB — past L2 on common
// parts, which is exactly where the measured per-edge round cost
// climbed from ~45 ns to ~73 ns — and at n=65537 it would be ~1 GB per
// set. The sparse representation costs O(n + edges) instead.
const SparseThreshold = 2048

// csrState is the sparse-mode representation behind an EdgeSet: a
// mutation log of packed (u,v) pairs plus two CSR views of it. The log
// is the source of truth — mutators only append to or filter it — and
// each view is compacted from the log the first time a reader asks for
// THAT direction, deduplicating on the way (adversaries that layer
// extra links over a copied schedule may log one link twice; it must
// still deliver once). The one exception is a set InRegularInto wrote:
// it writes the receiver-major view directly and leaves the log empty
// (fromView). Links added after that go to the log, and the view's
// links are moved into the log ahead of them (syncLog) only when a
// reader or another mutator needs the log.
//
// The views are lazy and independent because their readers are: a
// round reads only the receiver-major view (the gather), and building
// the view nobody reads was a sixth of the sparse round. Which reader
// forces which:
//
//   - receiver-major (inStart/inList): InCSR, InList and what is built
//     on them (InNeighborsInto, InDegree, InBitsInto), and Len when
//     neither view exists yet;
//   - sender-major (outStart/outList): OutList, OutNeighbors,
//     OutDegree, Has, ForEachEdge (hence Equal and Edges), and Retain
//     on a log that is not strictly ascending.
//
// Retain on a strictly ascending log (what the er and er2 samplers
// emit) forces neither: it filters the log in place, so a storm filter
// over er2 never builds the sender-major view at all. KeepBetween forces
// neither on any log.
//
// Which log takes which arm: a strictly ascending log (the er and er2
// samplers') takes compactAscending for both views. InRegularInto's
// set needs no compaction for its receiver-major view (its rows are
// written ascending and distinct), and its derived log — receiver by
// receiver, each row ascending — is what every other reader works
// from. A log whose receivers never decrease — that derived log, also
// once KeepBetween, which keeps the log's order, has pruned it — has
// its receiver-major view copied off the log in order, with no scatter
// (compactGeneral's copy arm), and its sender-major view scattered. Any
// other log is scattered into either view (compactGeneral).
//
// The sim engine's round reads only the receiver-major view, and on a
// CSR round of a run with crashes it first prunes the set with
// KeepBetween to the links from nodes that still send to nodes that
// still receive, so the transpose and the gather never see a dead
// node's links.
//
// Any mutation invalidates both views, deriving the log first if the
// view held it. A build writes the state, so a view read on another
// goroutine must be forced before the hand-off (the sim pipeline's
// build stage forces the receiver-major view of the set it hands to the
// round), and so must the log of a set another goroutine may mutate or
// read the sender-major view of.
type csrState struct {
	pairs    []uint64 // mutation log, u<<32 | v per link (duplicates allowed); empty while fromView
	built    uint8    // viewIn|viewOut: the views current with the log
	edges    int      // distinct links, valid while built != 0
	fromView bool     // inStart/inList hold links InRegularInto wrote that the log does not (see syncLog)

	outStart []int32 // n+1 prefix offsets into outList
	outList  []int32 // receivers, ascending within each sender row
	inStart  []int32 // n+1 prefix offsets into inList
	inList   []int32 // senders, ascending within each receiver row

	cursor   []int32 // length-n scatter scratch for a build
	maxPairs int     // high-water mark of the log, for headroom sizing
}

const (
	viewIn uint8 = 1 << iota
	viewOut
)

// NewEdgeSetSparse returns an empty edge set over n nodes in sparse CSR
// mode: no n×n bit-matrix is ever materialized, and storage scales with
// the number of links actually added. The full EdgeSet API works in
// either mode (except InRow, which is inherently a bitmap accessor);
// FillComplete converts the set to dense, because a complete graph is.
func NewEdgeSetSparse(n int) *EdgeSet {
	if n < 1 {
		panic(fmt.Sprintf("network: invalid node count %d", n))
	}
	return &EdgeSet{
		n:     n,
		words: MaskWords(n),
		csr: &csrState{
			outStart: make([]int32, n+1),
			inStart:  make([]int32, n+1),
			cursor:   make([]int32, n),
		},
	}
}

// NewEdgeSetAuto picks the representation by size: dense bit matrices
// below SparseThreshold (word-wise iteration, O(1) Has), sparse CSR at
// and above it. Engine-owned per-round scratch sets use this, so the
// delivery core follows the representation that fits the cache at each
// scale.
func NewEdgeSetAuto(n int) *EdgeSet {
	if n >= SparseThreshold {
		return NewEdgeSetSparse(n)
	}
	return NewEdgeSet(n)
}

// IsSparse reports whether the set uses the sparse CSR representation.
func (e *EdgeSet) IsSparse() bool { return e.csr != nil }

// InCSR exposes the receiver-major CSR view: ids[starts[v]:starts[v+1]]
// lists v's senders in ascending order — the delivery core's gather
// rows. Sparse mode only; the slices alias internal storage, are valid
// until the next mutation, and must be treated as read-only. It never
// builds the sender-major view.
func (e *EdgeSet) InCSR() (starts, ids []int32) {
	c := e.mustSparse("InCSR")
	e.buildIn()
	return c.inStart, c.inList
}

// InList returns v's senders in ascending order as a CSR row slice —
// the sparse counterpart of scanning InRow's bits. Sparse mode only;
// read-only, valid until the next mutation.
func (e *EdgeSet) InList(v int) []int32 {
	c := e.mustSparse("InList")
	e.check(v)
	e.buildIn()
	return c.inList[c.inStart[v]:c.inStart[v+1]:c.inStart[v+1]]
}

// OutList returns u's receivers in ascending order as a CSR row slice.
// Sparse mode only; read-only, valid until the next mutation.
func (e *EdgeSet) OutList(u int) []int32 {
	c := e.mustSparse("OutList")
	e.check(u)
	e.buildOut()
	return c.outList[c.outStart[u]:c.outStart[u+1]:c.outStart[u+1]]
}

func (e *EdgeSet) mustSparse(method string) *csrState {
	if e.csr == nil {
		panic("network: " + method + " on a dense EdgeSet")
	}
	return e.csr
}

// buildIn brings the receiver-major view up to date with the log.
func (e *EdgeSet) buildIn() {
	if c := e.csr; c.built&viewIn == 0 {
		c.inList, c.edges = c.compact(e.n, c.inStart, c.inList, 0)
		c.built |= viewIn
	}
}

// buildOut brings the sender-major view up to date with the log.
func (e *EdgeSet) buildOut() {
	if c := e.csr; c.built&viewOut == 0 {
		c.outList, c.edges = c.compact(e.n, c.outStart, c.outList, 32)
		c.built |= viewOut
	}
}

// sparseLen answers Len from whichever view exists — both deduplicate
// to the same count — and builds the receiver-major one when neither
// does: it is the view a round is about to read anyway.
func (e *EdgeSet) sparseLen() int {
	if e.csr.built == 0 {
		e.buildIn()
	}
	return e.csr.edges
}

// compact count-sorts the log into one CSR view and returns its list
// and the number of distinct links. keyShift picks the direction: a
// pair's row is uint32(p>>keyShift), its entry the other half — 32 for
// sender-major rows of receivers, 0 for receiver-major rows of senders.
// A strictly ascending log takes compactAscending, any other log
// compactGeneral (see csrState for which log takes which). Cost
// O(n + log length).
func (c *csrState) compact(n int, start, list []int32, keyShift uint) ([]int32, int) {
	c.syncLog()
	if ascendingPairs(c.pairs) {
		return c.compactAscending(n, start, list, keyShift)
	}
	return c.compactGeneral(n, start, list, keyShift)
}

// compactGeneral is compact for any log (rotating emits receiver-major,
// wrapping rows; layered adversaries may log a link twice): each row
// gets its entries in log order, then is sorted if it is not already,
// and deduplicated. The rows are filled by a counted stable scatter,
// or, for the receiver-major view of a log whose receivers never
// decrease, by one pass that copies the log's senders in order: its
// rows already lie in the log one after another.
func (c *csrState) compactGeneral(n int, start, list []int32, keyShift uint) ([]int32, int) {
	valShift := 32 - keyShift
	list = growInt32(list, len(c.pairs))
	if keyShift != 0 || !copyReceiverMajor(c.pairs, start, list) {
		c.countRows(n, start, keyShift)
		copy(c.cursor, start[:n])
		for _, p := range c.pairs {
			k := uint32(p >> keyShift)
			list[c.cursor[k]] = int32(uint32(p >> valShift))
			c.cursor[k]++
		}
	}

	// Sort each row if needed and dedup, compacting in place. The write
	// cursor never passes the read position within a row (w ≤ row start),
	// so the compaction is safe.
	w := int32(0)
	for k := 0; k < n; k++ {
		row := list[start[k]:start[k+1]]
		if !sortedInt32(row) {
			slices.Sort(row)
		}
		start[k] = w
		prev := int32(-1)
		for _, x := range row {
			if x != prev {
				list[w] = x
				w++
				prev = x
			}
		}
	}
	start[n] = w
	return list, int(w)
}

// compactAscending is compact for a log that is strictly ascending as
// packed u<<32|v — how the er and er2 samplers emit it. Such a log has
// no duplicates and is already sender-major, so the sender-major list
// is its low halves, copied without a scatter; and its stable
// receiver-major scatter fills every row in ascending sender order, so
// the per-row sort check and dedup pass are skipped.
func (c *csrState) compactAscending(n int, start, list []int32, keyShift uint) ([]int32, int) {
	c.countRows(n, start, keyShift)
	list = growInt32(list, len(c.pairs))
	if keyShift == 32 {
		for i, p := range c.pairs {
			list[i] = int32(uint32(p))
		}
		return list, len(c.pairs)
	}
	copy(c.cursor, start[:n])
	for _, p := range c.pairs {
		v := uint32(p)
		list[c.cursor[v]] = int32(p >> 32)
		c.cursor[v]++
	}
	return list, len(c.pairs)
}

// copyReceiverMajor fills a receiver-major view's n+1 row starts and
// list in one pass over a log whose receivers never decrease: each
// pair's sender is copied in log order, and a row starts where its
// receiver first appears. It reports false at the first receiver that
// decreases, having written part of start and list, which the caller's
// count and scatter overwrite.
func copyReceiverMajor(pairs []uint64, start, list []int32) bool {
	next := 0 // the first row whose start is not set yet
	for i, p := range pairs {
		v := int(uint32(p))
		if v < next-1 {
			return false
		}
		for ; next <= v; next++ {
			start[next] = int32(i)
		}
		list[i] = int32(p >> 32)
	}
	for ; next < len(start); next++ {
		start[next] = int32(len(pairs))
	}
	return true
}

// countRows fills start with the n+1 prefix offsets of the log's rows
// in the direction keyShift picks.
func (c *csrState) countRows(n int, start []int32, keyShift uint) {
	clear(start)
	for _, p := range c.pairs {
		start[uint32(p>>keyShift)+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
}

// sparseRetain is Retain on a sparse set. A strictly ascending log is
// already in ForEachEdge order with each link once, so it is filtered in
// place; any other log is walked through its sender-major view and
// rewritten from it (sorted and deduplicated, so it fits the log's own
// storage). Views survive when nothing was dropped: they depend only on
// the link set.
func (e *EdgeSet) sparseRetain(keep func(u, v int) bool) {
	c := e.csr
	c.syncLog()
	w := 0
	if ascendingPairs(c.pairs) {
		for _, p := range c.pairs {
			if keep(int(p>>32), int(uint32(p))) {
				c.pairs[w] = p
				w++
			}
		}
		if w != len(c.pairs) {
			c.pairs = c.pairs[:w]
			c.built = 0
		}
		return
	}
	e.buildOut()
	distinct := c.edges
	e.forEachEdge(func(u, v int) bool {
		if keep(u, v) {
			c.pairs[w] = uint64(u)<<32 | uint64(uint32(v))
			w++
		}
		return true
	})
	c.pairs = c.pairs[:w]
	if w != distinct {
		c.built = 0
	}
}

// sparseKeepBetween is KeepBetween on a sparse set: one pass over the
// log with no branch on the data. A link's verdict is two byte loads
// and no variable shift: over a 400 000-link log at n = 10 000 with ¾ of
// the nodes dead (2-core Xeon), role bytes measured ~40 % faster than
// testing two bitmap bits per link. Every pair is written back at the
// cursor, which advances only past a kept one, so the log stays in its
// order.
func (e *EdgeSet) sparseKeepBetween(roles []uint8) {
	c := e.csr
	c.syncLog()
	pairs := c.pairs
	w := 0
	for _, p := range pairs {
		keep := roles[p>>32] & (roles[uint32(p)] >> 1) & Sends // Receives is Sends<<1
		pairs[w] = p
		w += int(keep)
	}
	if w != len(pairs) {
		c.pairs = pairs[:w]
		c.built = 0
	}
}

// syncLog makes the log hold every link: on a fromView set it moves
// the view's links into the log, ahead of the links added since —
// receiver by receiver, each row ascending, so a log with nothing added
// is one whose receivers never decrease. The log grows with 50 %
// headroom when it must, as sparseReset grows it. Every reader and
// mutator of the log calls it first, but Add, AddUnchecked and
// AddOutWord, which only append.
func (c *csrState) syncLog() {
	if !c.fromView {
		return
	}
	c.fromView = false
	start, list := c.inStart, c.inList
	viewed, added := int(start[len(start)-1]), len(c.pairs)
	if total := viewed + added; cap(c.pairs) < total {
		grown := make([]uint64, total, total+total/2)
		copy(grown[viewed:], c.pairs)
		c.pairs = grown
	} else {
		c.pairs = c.pairs[:total]
		copy(c.pairs[viewed:], c.pairs[:added])
	}
	for v := 0; v+1 < len(start); v++ {
		for k := start[v]; k < start[v+1]; k++ {
			c.pairs[k] = uint64(list[k])<<32 | uint64(v)
		}
	}
}

// ascendingPairs reports whether a log is strictly ascending. It stops
// at the first pair that is not — a few pairs into a receiver-major
// log — so the general build pays almost nothing for asking.
func ascendingPairs(pairs []uint64) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1] >= pairs[i] {
			return false
		}
	}
	return true
}

// sparseReset clears the log, keeping storage. Once the all-time edge
// high-water mark has eaten into the log's headroom (less than 25 %
// left), the log is regrown to 50 % over it, so a steady-state engine
// round that later sees a record edge count still appends without
// growing — the zero-alloc round budget depends on it — and a record
// beaten by a few edges costs no reallocation.
func (e *EdgeSet) sparseReset() {
	c := e.csr
	if len(c.pairs) > c.maxPairs {
		c.maxPairs = len(c.pairs)
	}
	if cap(c.pairs) < c.maxPairs+c.maxPairs/4 {
		c.pairs = make([]uint64, 0, c.maxPairs+c.maxPairs/2)
	} else {
		c.pairs = c.pairs[:0]
	}
	c.built, c.fromView = 0, false
}

// sparseHas binary-searches u's out row.
func (e *EdgeSet) sparseHas(u, v int) bool {
	e.buildOut()
	c := e.csr
	row := c.outList[c.outStart[u]:c.outStart[u+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == int32(v)
}

// sparseRemove filters every occurrence of u→v out of the log.
func (e *EdgeSet) sparseRemove(u, v int) {
	c := e.csr
	c.syncLog()
	pair := uint64(u)<<32 | uint64(uint32(v))
	w := 0
	for _, p := range c.pairs {
		if p != pair {
			c.pairs[w] = p
			w++
		}
	}
	if w != len(c.pairs) {
		c.pairs = c.pairs[:w]
		c.built = 0
	}
}

// sparseLogFromDense rebuilds the log from a dense set's bit rows.
func (e *EdgeSet) sparseLogFromDense(other *EdgeSet) {
	c := e.csr
	c.pairs, c.fromView = c.pairs[:0], false
	for u := 0; u < other.n; u++ {
		base := u * other.words
		for w := 0; w < other.words; w++ {
			bits := other.out[base+w]
			for bits != 0 {
				v := w*wordBits + trailingZeros(bits)
				bits &= bits - 1
				c.pairs = append(c.pairs, uint64(u)<<32|uint64(uint32(v)))
			}
		}
	}
	c.built = 0
}

// makeDense converts a sparse set to the dense bit-matrix
// representation in place, allocating the 2·n·words backing. Used by
// FillComplete: a complete graph is dense by definition, so a sparse
// set asked to become one changes representation instead of logging
// n(n−1) pairs.
func (e *EdgeSet) makeDense() {
	if e.csr == nil {
		return
	}
	e.csr.syncLog()
	pairs := e.csr.pairs
	backing := make([]uint64, 2*e.n*e.words)
	e.out = backing[: e.n*e.words : e.n*e.words]
	e.in = backing[e.n*e.words:]
	e.csr = nil
	for _, p := range pairs {
		e.AddUnchecked(int(p>>32), int(uint32(p))) // bits dedup the log for free
	}
}

// forEachEdge calls fn for every link in sender-major, ascending-
// receiver order — the representation-independent edge iterator Equal
// and Edges are built on. fn returning false stops the walk.
func (e *EdgeSet) forEachEdge(fn func(u, v int) bool) {
	if e.csr != nil {
		e.buildOut()
		c := e.csr
		for u := 0; u < e.n; u++ {
			for _, v := range c.outList[c.outStart[u]:c.outStart[u+1]] {
				if !fn(u, int(v)) {
					return
				}
			}
		}
		return
	}
	for u := 0; u < e.n; u++ {
		base := u * e.words
		for w := 0; w < e.words; w++ {
			bits := e.out[base+w]
			for bits != 0 {
				v := w*wordBits + trailingZeros(bits)
				bits &= bits - 1
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// growInt32 returns a slice of length n, reusing buf's storage when it
// fits and reallocating with 25% headroom when it does not, so repeated
// builds at slowly growing edge counts settle into zero allocations.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n, n+n/4)
}

func sortedInt32(xs []int32) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}
