package core

// boundedLow keeps the k smallest values it has been given, counting
// multiplicity. It implements R_low of Algorithm 2 (STORE, lines 18–21):
// a new value is appended while fewer than k are held; afterwards it
// displaces the current maximum when smaller.
//
// k = f+1 is tiny in every realistic configuration, so a flat slice with
// linear scans beats a heap on both allocation and constant factors; the
// micro-benchmarks in bounded_bench_test.go pin this down. The scan runs
// only when the maximum is displaced: mi remembers where it sits, so the
// common delivery — a value that does not belong among the k smallest —
// is rejected with one compare.
type boundedLow struct {
	k    int
	vals []float64
	mi   int // index of the first maximum of vals (0 while empty)
}

func newBoundedLow(k int) boundedLow {
	return boundedLow{k: k, vals: make([]float64, 0, k)}
}

func (b *boundedLow) add(v float64) {
	if len(b.vals) < b.k {
		b.vals = append(b.vals, v)
		if v > b.vals[b.mi] {
			b.mi = len(b.vals) - 1
		}
		return
	}
	if v < b.vals[b.mi] {
		b.vals[b.mi] = v
		b.mi = b.maxIndex()
	}
}

// max returns the largest held value — max(R_low), the (f+1)-st smallest
// value received overall once the list is full.
func (b *boundedLow) max() float64 { return b.vals[b.mi] }

func (b *boundedLow) maxIndex() int {
	mi := 0
	for i := 1; i < len(b.vals); i++ {
		if b.vals[i] > b.vals[mi] {
			mi = i
		}
	}
	return mi
}

func (b *boundedLow) len() int { return len(b.vals) }

func (b *boundedLow) clear() { b.vals, b.mi = b.vals[:0], 0 }

// boundedHigh keeps the k largest values — R_high of Algorithm 2
// (STORE, lines 22–25) — remembering the index of its minimum the way
// boundedLow remembers its maximum.
type boundedHigh struct {
	k    int
	vals []float64
	mi   int // index of the first minimum of vals (0 while empty)
}

func newBoundedHigh(k int) boundedHigh {
	return boundedHigh{k: k, vals: make([]float64, 0, k)}
}

func (b *boundedHigh) add(v float64) {
	if len(b.vals) < b.k {
		b.vals = append(b.vals, v)
		if v < b.vals[b.mi] {
			b.mi = len(b.vals) - 1
		}
		return
	}
	if v > b.vals[b.mi] {
		b.vals[b.mi] = v
		b.mi = b.minIndex()
	}
}

// min returns the smallest held value — min(R_high), the (f+1)-st largest
// value received overall once the list is full.
func (b *boundedHigh) min() float64 { return b.vals[b.mi] }

func (b *boundedHigh) minIndex() int {
	mi := 0
	for i := 1; i < len(b.vals); i++ {
		if b.vals[i] < b.vals[mi] {
			mi = i
		}
	}
	return mi
}

func (b *boundedHigh) len() int { return len(b.vals) }

func (b *boundedHigh) clear() { b.vals, b.mi = b.vals[:0], 0 }
