package core

import "math"

// bounded keeps the k smallest values it has been given, counting
// multiplicity. It implements R_low of Algorithm 2 (STORE, lines 18–21):
// a new value is stored while fewer than k are held; afterwards it
// displaces the current maximum when smaller. R_high (lines 22–25) is a
// bounded over negated values: negation is exact for every float, so
// min(R_high) is −max of that list, bit for bit.
//
// The slots are kept sorted, so a displacement is a short shift rather
// than a rescan. k = f+1 is tiny in every realistic configuration, which
// is why a flat array beats a heap; the micro-benchmarks in
// bounded_bench_test.go pin this down. The common delivery — a value
// that does not belong among the k smallest — is rejected with one
// compare, inlined at the caller.
//
// The result is the same, bit for bit, as the unsorted list the
// pseudo-code describes (append while there is room, then overwrite the
// first maximum). Each value carries the index it would hold there
// (NaNs aside, which changes no order), and equal values sort by that
// index: a new value has the highest index so far, so it lands above its
// equals. The list's first maximum is then the lowest slot of the top
// run of equal values, which top tracks, so max() is one load and keeps
// which of −0 and +0 (the one pair of equal non-NaN floats whose bits
// differ) that list returns. A NaN takes a slot there for good and is
// never its maximum, unless it is the first value after clear: no value
// compares above the NaN in the first slot, so that list returns it for
// the rest of the phase. Here a NaN takes a slot away instead, and a
// NaN first sets nan, which makes max NaN until clear, while the later
// values still take and trade the slots left, so held counts as that
// list does. A DBAC's first value is its own, which is NaN only after
// infinite Byzantine values reached it below its quorum.
type bounded struct {
	bar   float64 // the top value once no slot is free: add then rejects v ≥ bar
	lim   int     // slots values may take: k, less one per NaN received
	top   int     // lowest slot of the top run of equal values
	nan   bool    // the first value after clear was NaN
	slots []slot  // sorted by value, then index; capacity k
}

// slot is one held value and its index in the unsorted list.
type slot struct {
	v  float64
	at int
}

// add stores v if it belongs among the k smallest. The reject — v at or
// above a full list's top — stays small enough to inline; insert does
// the rest.
func (b *bounded) add(v float64) {
	if len(b.slots) == b.lim && v >= b.bar {
		return
	}
	b.insert(v)
}

func (b *bounded) insert(v float64) {
	s := b.slots
	n := len(s)
	if v != v {
		if n < b.lim {
			b.nan = b.nan || b.held() == 0
			b.lim--
			if n == b.lim {
				b.bar = math.Inf(-1) // no slot left: every value is rejected
				if n > 0 {
					b.bar = s[n-1].v
				}
			}
		}
		return
	}
	if n == b.lim {
		// v is below the top (add checked): it overwrites the top run's
		// lowest slot, the hole the shift fills. Among its equals v goes
		// by the index it inherits.
		i, at := b.top, s[b.top].at
		for i > 0 && (v < s[i-1].v || v == s[i-1].v && at < s[i-1].at) {
			s[i] = s[i-1]
			i--
		}
		s[i] = slot{v, at}
		if b.top++; b.top == n {
			// The top run ran out: walk down the new one, once.
			t := n - 1
			for t > 0 && s[t-1].v == s[n-1].v {
				t--
			}
			b.top, b.bar = t, s[n-1].v
		}
		return
	}
	// A free slot: v has the highest index so far, so it lands above its
	// equals.
	s = s[:n+1]
	b.slots = s
	i := n
	for i > 0 && v < s[i-1].v {
		s[i] = s[i-1]
		i--
	}
	s[i] = slot{v, n}
	switch {
	case i < n:
		b.top++ // below the top run, which moved up
	case n == 0 || v > s[n-1].v:
		b.top = n // alone at the top
	}
	if n+1 == b.lim {
		b.bar = s[n].v
	}
}

// max returns the largest held value — max(R_low), the (f+1)-st smallest
// value received overall once the list is full — and NaN when the first
// value after clear was NaN.
func (b *bounded) max() float64 {
	if b.nan {
		return math.NaN()
	}
	return b.slots[b.top].v
}

// held counts the values the unsorted list would hold: the slots, and
// the NaNs that took one.
func (b *bounded) held() int { return len(b.slots) + cap(b.slots) - b.lim }

func (b *bounded) clear() {
	b.slots = b.slots[:0]
	b.lim = cap(b.slots)
	b.top = 0
	b.nan = false
}
