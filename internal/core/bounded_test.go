package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundedLowKeepsSmallest(t *testing.T) {
	b := newBoundedLow(3)
	for _, v := range []float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2} {
		b.add(v)
	}
	// 3 smallest of the stream are {0.1, 0.2, 0.3}; max(Rlow) = 0.3.
	if got := b.max(); got != 0.3 {
		t.Errorf("max(Rlow) = %g, want 0.3", got)
	}
	if b.len() != 3 {
		t.Errorf("len = %d, want 3", b.len())
	}
}

func TestBoundedHighKeepsLargest(t *testing.T) {
	b := newBoundedHigh(3)
	for _, v := range []float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2} {
		b.add(v)
	}
	// 3 largest are {0.5, 0.7, 0.9}; min(Rhigh) = 0.5.
	if got := b.min(); got != 0.5 {
		t.Errorf("min(Rhigh) = %g, want 0.5", got)
	}
}

func TestBoundedDuplicatesCountWithMultiplicity(t *testing.T) {
	b := newBoundedLow(2)
	b.add(0.5)
	b.add(0.5)
	b.add(0.9)
	if got := b.max(); got != 0.5 {
		t.Errorf("max(Rlow) = %g, want 0.5 (multiset semantics)", got)
	}
}

func TestBoundedClear(t *testing.T) {
	b := newBoundedLow(2)
	b.add(0.1)
	b.add(0.2)
	b.clear()
	if b.len() != 0 {
		t.Errorf("len after clear = %d, want 0", b.len())
	}
	b.add(0.7)
	if got := b.max(); got != 0.7 {
		t.Errorf("max after refill = %g, want 0.7", got)
	}
}

func TestBoundedUnderfilled(t *testing.T) {
	lo := newBoundedLow(4)
	lo.add(0.3)
	lo.add(0.6)
	if got := lo.max(); got != 0.6 {
		t.Errorf("underfilled max = %g, want 0.6", got)
	}
	hi := newBoundedHigh(4)
	hi.add(0.3)
	hi.add(0.6)
	if got := hi.min(); got != 0.3 {
		t.Errorf("underfilled min = %g, want 0.3", got)
	}
}

// TestBoundedQuick property: after any stream of values, max(Rlow)
// equals the k-th smallest of the stream (counting multiplicity) and
// min(Rhigh) the k-th largest — Algorithm 2's r_{f+1} and
// r_{|R|−f} selectors.
func TestBoundedQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(1)),
	}
	property := func(raw []uint16, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw)%4 + 1
		lo := newBoundedLow(k)
		hi := newBoundedHigh(k)
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 65535
			lo.add(vals[i])
			hi.add(vals[i])
		}
		sort.Float64s(vals)
		kk := k
		if kk > len(vals) {
			kk = len(vals)
		}
		wantLow := vals[kk-1]
		wantHigh := vals[len(vals)-kk]
		return lo.max() == wantLow && hi.min() == wantHigh
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// rescanAdd is the STORE rule as it was before the extreme's index was
// remembered: rescan all held values on every delivery and replace the
// first extreme when v beats it. The slot order it produces is the
// reference for the cached-index lists (worse reports "a is a worse
// keeper than b": > for R_low, < for R_high).
func rescanAdd(vals []float64, k int, v float64, worse func(a, b float64) bool) []float64 {
	if len(vals) < k {
		return append(vals, v)
	}
	ext := 0
	for i := 1; i < len(vals); i++ {
		if worse(vals[i], vals[ext]) {
			ext = i
		}
	}
	if worse(vals[ext], v) {
		vals[ext] = v
	}
	return vals
}

// TestBoundedMatchesRescanAndSortOracle drives both lists with random
// streams drawn from a small value alphabet — so duplicates, and ties
// with the current threshold, are the common case — at k from 1 up, with
// clear() landing mid-stream. After every operation the held slots equal
// the rescanning reference's slot for slot, the held multiset is the k
// smallest (largest) of everything since the last clear, and max()/min()
// is the sort oracle's k-th order statistic.
func TestBoundedMatchesRescanAndSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(6)
		alphabet := 2 + rng.Intn(6)
		lo, hi := newBoundedLow(k), newBoundedHigh(k)
		var refLo, refHi, seen []float64
		for op := 0; op < 120; op++ {
			if rng.Intn(25) == 0 {
				lo.clear()
				hi.clear()
				refLo, refHi, seen = refLo[:0], refHi[:0], seen[:0]
				if lo.len() != 0 || hi.len() != 0 {
					t.Fatalf("trial %d: clear left %d/%d values", trial, lo.len(), hi.len())
				}
				continue
			}
			v := float64(rng.Intn(alphabet)) / float64(alphabet-1)
			lo.add(v)
			hi.add(v)
			refLo = rescanAdd(refLo, k, v, func(a, b float64) bool { return a > b })
			refHi = rescanAdd(refHi, k, v, func(a, b float64) bool { return a < b })
			seen = append(seen, v)
			if !reflect.DeepEqual(lo.vals, refLo) || !reflect.DeepEqual(hi.vals, refHi) {
				t.Fatalf("trial %d k=%d op %d: slots low %v high %v, rescanning reference %v %v",
					trial, k, op, lo.vals, hi.vals, refLo, refHi)
			}
			sorted := append([]float64(nil), seen...)
			sort.Float64s(sorted)
			kk := min(k, len(sorted))
			heldLo := append([]float64(nil), lo.vals...)
			heldHi := append([]float64(nil), hi.vals...)
			sort.Float64s(heldLo)
			sort.Float64s(heldHi)
			if !reflect.DeepEqual(heldLo, sorted[:kk]) || !reflect.DeepEqual(heldHi, sorted[len(sorted)-kk:]) {
				t.Fatalf("trial %d k=%d op %d: held low %v high %v of stream %v", trial, k, op, heldLo, heldHi, sorted)
			}
			if lo.max() != sorted[kk-1] || hi.min() != sorted[len(sorted)-kk] {
				t.Fatalf("trial %d k=%d op %d: max(Rlow)=%g min(Rhigh)=%g, want %g %g",
					trial, k, op, lo.max(), hi.min(), sorted[kk-1], sorted[len(sorted)-kk])
			}
		}
	}
}
