// Package network models the communication substrate of the anonymous
// dynamic network (§II-A): directed per-round edge sets chosen by the
// message adversary, receiver-local port numberings, dynamic-graph traces
// and the (T, D)-dynaDegree stability property (Definition 1).
package network

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// EdgeSet is one round's directed communication graph E(t) over nodes
// [0, n). The model has no self-loops (self-delivery is reliable and
// modeled inside the algorithms), so Add silently drops (u, u).
//
// Two representations share the one type. The dense default is a pair
// of bit matrices — a row per source node (out) and its transpose, a
// row per destination node (in) — kept in sync by every mutator, so
// word-wise iteration works in BOTH directions: the delivery core scans
// a receiver's in-row in O(n/64 + in-degree) instead of probing all n
// possible senders. Past SparseThreshold nodes the bit matrices
// outgrow the cache (and at n~10⁵ they would not fit memory at all), so
// NewEdgeSetSparse/NewEdgeSetAuto select a sparse CSR mode instead: a
// mutation log compacted lazily — and separately, on first read of
// each direction — into sender-major and receiver-major adjacency
// lists (see csr.go). Every method except InRow works in
// either mode; IsSparse tells the engines which fused iteration to use.
type EdgeSet struct {
	n     int
	words int
	out   []uint64  // out[u*words + w]: bitmap of u's outgoing neighbors (dense mode)
	in    []uint64  // in[v*words + w]: bitmap of v's incoming neighbors (dense mode)
	csr   *csrState // sparse-mode state; nil means dense
}

// NewEdgeSet returns an empty edge set over n nodes. Both matrices
// share one backing array, so the transpose costs no extra allocation.
func NewEdgeSet(n int) *EdgeSet {
	if n < 1 {
		panic(fmt.Sprintf("network: invalid node count %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	backing := make([]uint64, 2*n*w)
	return &EdgeSet{n: n, words: w, out: backing[: n*w : n*w], in: backing[n*w:]}
}

// MaskWords returns the number of 64-bit words a node bitmap over n
// nodes occupies — the length callers must size mask arguments
// (InBitsInto) to.
func MaskWords(n int) int { return (n + wordBits - 1) / wordBits }

// N returns the number of nodes.
func (e *EdgeSet) N() int { return e.n }

// Add inserts the directed link u→v. Self-loops are ignored; out-of-range
// endpoints panic (adversaries constructing edges out of range are bugs).
func (e *EdgeSet) Add(u, v int) {
	e.check(u)
	e.check(v)
	if u == v {
		return
	}
	if c := e.csr; c != nil {
		c.pairs = append(c.pairs, uint64(u)<<32|uint64(uint32(v)))
		c.built = 0
		return
	}
	e.out[u*e.words+v/wordBits] |= 1 << (uint(v) % wordBits)
	e.in[v*e.words+u/wordBits] |= 1 << (uint(u) % wordBits)
}

// AddUnchecked is Add without the range validation and the self-loop
// drop: the caller guarantees 0 ≤ u,v < n and u ≠ v. It exists for bulk
// generators (the geometric-skip sampler) whose index arithmetic
// already establishes both invariants for every edge — revalidating per
// edge is measurable at sparse-bench scale. Everyone else wants Add.
func (e *EdgeSet) AddUnchecked(u, v int) {
	if c := e.csr; c != nil {
		c.pairs = append(c.pairs, uint64(u)<<32|uint64(uint32(v)))
		c.built = 0
		return
	}
	e.out[u*e.words+v/wordBits] |= 1 << (uint(v) % wordBits)
	e.in[v*e.words+u/wordBits] |= 1 << (uint(u) % wordBits)
}

// AddOutWord adds the links u→64w+b for every set bit b of bits: word w
// of u's out-row at once, for samplers that draw a row word by word.
// bits may hold neither u itself nor a node ≥ n. In sparse mode the
// links go to the log in ascending order, so a sampler that adds its
// rows in (u, w) order leaves an ascending log, as one Add per link in
// that order would.
func (e *EdgeSet) AddOutWord(u, w int, bits uint64) {
	e.check(u)
	if w < 0 || w >= e.words {
		panic(fmt.Sprintf("network: row word %d out of range [0,%d)", w, e.words))
	}
	base := w * wordBits
	var illegal uint64 // the sender and the nodes ≥ n
	if span := e.n - base; span < wordBits {
		illegal = ^uint64(0) << (uint(span) & 63)
	}
	if self := uint(u - base); self < wordBits {
		illegal |= 1 << self
	}
	if bits&illegal != 0 {
		panic(fmt.Sprintf("network: row word %d of node %d holds a self-loop or a node ≥ %d", w, u, e.n))
	}
	if c := e.csr; c != nil {
		for b := bits; b != 0; b &= b - 1 {
			c.pairs = append(c.pairs, uint64(u)<<32|uint64(base+trailingZeros(b)))
		}
		c.built = 0
		return
	}
	words := e.words
	e.out[u*words+w] |= bits
	in, col, mask := e.in, u/wordBits, uint64(1)<<(uint(u)%wordBits)
	for b := bits; b != 0; b &= b - 1 {
		in[(base+trailingZeros(b))*words+col] |= mask
	}
}

// Remove deletes the directed link u→v if present.
func (e *EdgeSet) Remove(u, v int) {
	e.check(u)
	e.check(v)
	if e.csr != nil {
		e.sparseRemove(u, v)
		return
	}
	e.out[u*e.words+v/wordBits] &^= 1 << (uint(v) % wordBits)
	e.in[v*e.words+u/wordBits] &^= 1 << (uint(u) % wordBits)
}

// Has reports whether the directed link u→v is present.
func (e *EdgeSet) Has(u, v int) bool {
	e.check(u)
	e.check(v)
	if e.csr != nil {
		return e.sparseHas(u, v)
	}
	return e.out[u*e.words+v/wordBits]&(1<<(uint(v)%wordBits)) != 0
}

// OutNeighbors returns u's outgoing neighbors in ascending order.
func (e *EdgeSet) OutNeighbors(u int) []int {
	e.check(u)
	if e.csr != nil {
		row := e.OutList(u)
		res := make([]int, len(row))
		for i, v := range row {
			res[i] = int(v)
		}
		return res
	}
	var res []int
	base := u * e.words
	for w := 0; w < e.words; w++ {
		bits := e.out[base+w]
		for bits != 0 {
			b := trailingZeros(bits)
			res = append(res, w*wordBits+b)
			bits &= bits - 1
		}
	}
	return res
}

// InNeighbors returns v's incoming neighbors in ascending order, by
// scanning v's transposed in-row word-wise.
func (e *EdgeSet) InNeighbors(v int) []int {
	return e.InNeighborsInto(v, nil)
}

// InNeighborsInto appends v's incoming neighbors to buf in ascending
// order and returns the extended slice. With a recycled buffer it
// allocates nothing: the scan walks v's in-row one word at a time and
// extracts set bits, so the cost is O(n/64 + in-degree) — this is the
// delivery core's sender gather.
func (e *EdgeSet) InNeighborsInto(v int, buf []int) []int {
	e.check(v)
	if e.csr != nil {
		for _, u := range e.InList(v) {
			buf = append(buf, int(u))
		}
		return buf
	}
	base := v * e.words
	for w := 0; w < e.words; w++ {
		bits := e.in[base+w]
		for bits != 0 {
			b := trailingZeros(bits)
			buf = append(buf, w*wordBits+b)
			bits &= bits - 1
		}
	}
	return buf
}

// InDegree returns the number of incoming links at v, word-wise.
func (e *EdgeSet) InDegree(v int) int {
	e.check(v)
	if e.csr != nil {
		return len(e.InList(v))
	}
	d := 0
	base := v * e.words
	for w := 0; w < e.words; w++ {
		d += popCount(e.in[base+w])
	}
	return d
}

// OutDegree returns the number of outgoing links at u.
func (e *EdgeSet) OutDegree(u int) int {
	e.check(u)
	if e.csr != nil {
		return len(e.OutList(u))
	}
	d := 0
	base := u * e.words
	for w := 0; w < e.words; w++ {
		d += popCount(e.out[base+w])
	}
	return d
}

// Len returns the total number of directed links.
func (e *EdgeSet) Len() int {
	if e.csr != nil {
		return e.sparseLen()
	}
	total := 0
	for _, w := range e.out {
		total += popCount(w)
	}
	return total
}

// ForEachEdge calls fn for every link in sender-major, ascending-
// receiver order — the same order in either representation, so callers
// that fold the walk into randomized decisions (the chaos layer's storm
// filters) stay bit-identical across the dense/CSR switch. fn returning
// false stops the walk. The set must not be mutated during the walk.
func (e *EdgeSet) ForEachEdge(fn func(u, v int) bool) { e.forEachEdge(fn) }

// Retain keeps the links keep accepts and drops the rest, in place. keep
// is called once per link, in ForEachEdge order (sender-major,
// ascending receiver), so a filter that folds the walk into randomized
// decisions stays bit-identical across representations. A dense set
// clears the dropped bits; a sparse set edits its log (see
// sparseRetain). keep must not touch the set.
func (e *EdgeSet) Retain(keep func(u, v int) bool) {
	if e.csr != nil {
		e.sparseRetain(keep)
		return
	}
	// The walk reads each bitmap word before visiting its links, so
	// clearing a visited link's bits does not disturb it.
	e.forEachEdge(func(u, v int) bool {
		if !keep(u, v) {
			e.Remove(u, v)
		}
		return true
	})
}

// Node roles for KeepBetween, one byte per node.
const (
	Sends    uint8 = 1 << iota // the node's out-links are kept
	Receives                   // the node's in-links are kept
)

// KeepBetween keeps only the links u→v where roles[u] has Sends and
// roles[v] has Receives, and drops the rest in place: Retain with the
// filter "u sends and v receives", given as one role byte per node. A
// sparse set takes no callback and no branch per link, keeps the rest
// of its log in the log's order and builds no view for it; views
// survive when nothing was dropped. A dense set is filtered by Retain.
// The sim engine prunes a CSR round's graph with it to the links from
// nodes that still send to nodes that still receive.
func (e *EdgeSet) KeepBetween(roles []uint8) {
	if len(roles) < e.n {
		panic(fmt.Sprintf("network: KeepBetween over %d roles, want %d", len(roles), e.n))
	}
	if e.csr != nil {
		e.sparseKeepBetween(roles)
		return
	}
	e.Retain(func(u, v int) bool { return roles[u]&Sends != 0 && roles[v]&Receives != 0 })
}

// Clone returns a deep copy in the same representation.
func (e *EdgeSet) Clone() *EdgeSet {
	var c *EdgeSet
	if e.csr != nil {
		c = NewEdgeSetSparse(e.n)
	} else {
		c = NewEdgeSet(e.n)
	}
	c.CopyFrom(e)
	return c
}

// Reset removes every link, keeping the backing storage. It makes an
// engine-owned scratch set reusable round after round without
// allocating.
func (e *EdgeSet) Reset() {
	if e.csr != nil {
		e.sparseReset()
		return
	}
	clear(e.out)
	clear(e.in)
}

// CopyFrom overwrites e with other's links without allocating (beyond
// log growth in sparse mode). Both sets must share n; the
// representations may differ — e keeps its own.
func (e *EdgeSet) CopyFrom(other *EdgeSet) {
	if other.n != e.n {
		panic(fmt.Sprintf("network: copy between mismatched sizes %d and %d", e.n, other.n))
	}
	switch {
	case e.csr != nil && other.csr != nil:
		other.csr.syncLog()
		e.csr.pairs = append(e.csr.pairs[:0], other.csr.pairs...)
		e.csr.built, e.csr.fromView = 0, false
	case e.csr != nil:
		e.sparseLogFromDense(other)
	case other.csr != nil:
		clear(e.out)
		clear(e.in)
		other.forEachEdge(func(u, v int) bool {
			e.AddUnchecked(u, v)
			return true
		})
	default:
		copy(e.out, other.out)
		copy(e.in, other.in)
	}
}

// FillComplete overwrites e with the complete directed graph (every
// link except self-loops), word-wise — the zero-allocation counterpart
// of Complete(n). The complete graph is its own transpose, so both
// matrices get the same pattern. A sparse set converts to dense first:
// the complete graph IS dense, and logging n(n−1) pairs would defeat
// the representation.
func (e *EdgeSet) FillComplete() {
	if e.csr != nil {
		e.makeDense()
	}
	e.fillCompleteMatrix(e.out)
	e.fillCompleteMatrix(e.in)
}

func (e *EdgeSet) fillCompleteMatrix(m []uint64) {
	for i := range m {
		m[i] = ^uint64(0)
	}
	tail := ^uint64(0)
	if r := e.n % wordBits; r != 0 {
		tail = (uint64(1) << uint(r)) - 1
	}
	for u := 0; u < e.n; u++ {
		row := u * e.words
		m[row+e.words-1] &= tail
		m[row+u/wordBits] &^= 1 << (uint(u) % wordBits)
	}
}

// IntersectWith keeps only the links present in both sets, in place.
func (e *EdgeSet) IntersectWith(other *EdgeSet) {
	if other.n != e.n {
		panic(fmt.Sprintf("network: intersection of mismatched sizes %d and %d", e.n, other.n))
	}
	switch {
	case e.csr != nil:
		// Filter the log through other's membership; dedup happens at build.
		c := e.csr
		c.syncLog()
		w := 0
		for _, p := range c.pairs {
			if other.Has(int(p>>32), int(uint32(p))) {
				c.pairs[w] = p
				w++
			}
		}
		c.pairs = c.pairs[:w]
		c.built = 0
	case other.csr != nil:
		for u := 0; u < e.n; u++ {
			base := u * e.words
			for w := 0; w < e.words; w++ {
				bits := e.out[base+w]
				for bits != 0 {
					v := w*wordBits + trailingZeros(bits)
					bits &= bits - 1
					if !other.Has(u, v) {
						e.Remove(u, v)
					}
				}
			}
		}
	default:
		for i, w := range other.out {
			e.out[i] &= w
		}
		for i, w := range other.in {
			e.in[i] &= w
		}
	}
}

// Equal reports structural equality, regardless of representation.
func (e *EdgeSet) Equal(other *EdgeSet) bool {
	if other == nil || other.n != e.n {
		return false
	}
	if e.csr == nil && other.csr == nil {
		for i, w := range other.out {
			if e.out[i] != w {
				return false
			}
		}
		return true
	}
	// Mixed or sparse: same link count plus containment one way.
	if e.Len() != other.Len() {
		return false
	}
	equal := true
	e.forEachEdge(func(u, v int) bool {
		if !other.Has(u, v) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// Edges returns all directed links as (from, to) pairs in row order,
// useful for traces and tests.
func (e *EdgeSet) Edges() [][2]int {
	res := make([][2]int, 0, e.Len())
	e.forEachEdge(func(u, v int) bool {
		res = append(res, [2]int{u, v})
		return true
	})
	return res
}

// InRow exposes v's transposed in-row — the raw bitmap words of v's
// incoming neighbors, bit u of word w set iff u = 64w+b is a sender
// towards v. The slice aliases the set's backing storage and is valid
// only until the next mutation; callers must treat it as read-only.
// It exists for the simulation engine's dense-row arm, which turns the
// row's bits into a sender list without an intermediate neighbor list.
// Dense mode only — sparse callers use InList, the CSR row with
// the same ascending-sender iteration order.
func (e *EdgeSet) InRow(v int) []uint64 {
	if e.csr != nil {
		panic("network: InRow on a sparse EdgeSet (use InList)")
	}
	e.check(v)
	base := v * e.words
	return e.in[base : base+e.words : base+e.words]
}

// InWords exposes the in-rows of a dense set over at most 64 nodes, one
// word per receiver: bit u of InWords()[v] is set iff u→v is a link. It
// aliases the set's storage as InRow does, for the simulation engine's
// word round, which hands every receiver's row to the processes in one
// call. Dense mode and n ≤ 64 only.
func (e *EdgeSet) InWords() []uint64 {
	if e.csr != nil || e.words != 1 {
		panic(fmt.Sprintf("network: InWords on a sparse set or over %d > %d nodes", e.n, wordBits))
	}
	return e.in[:e.n:e.n]
}

// InBitsInto accumulates, into acc (length MaskWords(n)), the bitmap of
// v's incoming neighbors — a word-wise OR of v's transposed in-row.
// Used by the dynaDegree checker to union windows without allocating.
func (e *EdgeSet) InBitsInto(v int, acc []uint64) {
	e.check(v)
	if e.csr != nil {
		for _, u := range e.InList(v) {
			acc[int(u)/wordBits] |= 1 << (uint(u) % wordBits)
		}
		return
	}
	base := v * e.words
	for w := 0; w < e.words; w++ {
		acc[w] |= e.in[base+w]
	}
}

func (e *EdgeSet) check(v int) {
	if v < 0 || v >= e.n {
		panic(fmt.Sprintf("network: node %d out of range [0,%d)", v, e.n))
	}
}

func popCount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
