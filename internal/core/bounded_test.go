package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// newBounded is an empty list of k slots, as a DBAC's lists are built.
func newBounded(k int) bounded {
	return bounded{lim: k, slots: make([]slot, 0, k)}
}

func TestBoundedLowKeepsSmallest(t *testing.T) {
	b := newBounded(3)
	for _, v := range []float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2} {
		b.add(v)
	}
	// 3 smallest of the stream are {0.1, 0.2, 0.3}; max(Rlow) = 0.3.
	if got := b.max(); got != 0.3 {
		t.Errorf("max(Rlow) = %g, want 0.3", got)
	}
	if b.held() != 3 {
		t.Errorf("held = %d, want 3", b.held())
	}
}

// R_high is a bounded over negated values.
func TestBoundedHighKeepsLargest(t *testing.T) {
	b := newBounded(3)
	for _, v := range []float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2} {
		b.add(-v)
	}
	// 3 largest are {0.5, 0.7, 0.9}; min(Rhigh) = 0.5.
	if got := -b.max(); got != 0.5 {
		t.Errorf("min(Rhigh) = %g, want 0.5", got)
	}
}

func TestBoundedDuplicatesCountWithMultiplicity(t *testing.T) {
	b := newBounded(2)
	b.add(0.5)
	b.add(0.5)
	b.add(0.9)
	if got := b.max(); got != 0.5 {
		t.Errorf("max(Rlow) = %g, want 0.5 (multiset semantics)", got)
	}
}

func TestBoundedClear(t *testing.T) {
	b := newBounded(2)
	b.add(0.1)
	b.add(0.2)
	b.clear()
	if b.held() != 0 {
		t.Errorf("held after clear = %d, want 0", b.held())
	}
	b.add(0.7)
	if got := b.max(); got != 0.7 {
		t.Errorf("max after refill = %g, want 0.7", got)
	}
}

func TestBoundedUnderfilled(t *testing.T) {
	lo := newBounded(4)
	lo.add(0.3)
	lo.add(0.6)
	if got := lo.max(); got != 0.6 {
		t.Errorf("underfilled max = %g, want 0.6", got)
	}
	hi := newBounded(4)
	hi.add(-0.3)
	hi.add(-0.6)
	if got := -hi.max(); got != 0.3 {
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
		lo := newBounded(k)
		hi := newBounded(k)
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 65535
			lo.add(vals[i])
			hi.add(-vals[i])
		}
		sort.Float64s(vals)
		kk := k
		if kk > len(vals) {
			kk = len(vals)
		}
		wantLow := vals[kk-1]
		wantHigh := vals[len(vals)-kk]
		return lo.max() == wantLow && -hi.max() == wantHigh
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// flatList is the STORE rule as the pseudo-code reads and as R_low and
// R_high were kept before their slots were sorted: an unsorted list that
// appends while fewer than k values are held, and afterwards overwrites
// its first extreme when v beats it, rescanning on every delivery
// (worse reports "a is a worse keeper than b": > for R_low, < for
// R_high). extreme is what max(R_low) or min(R_high) returned: the
// first extreme in slot order.
type flatList struct {
	k     int
	vals  []float64
	worse func(a, b float64) bool
}

func (l *flatList) ext() int {
	ext := 0
	for i := 1; i < len(l.vals); i++ {
		if l.worse(l.vals[i], l.vals[ext]) {
			ext = i
		}
	}
	return ext
}

func (l *flatList) add(v float64) {
	if len(l.vals) < l.k {
		l.vals = append(l.vals, v)
		return
	}
	if ext := l.ext(); l.worse(l.vals[ext], v) {
		l.vals[ext] = v
	}
}

func (l *flatList) extreme() float64 { return l.vals[l.ext()] }

func newFlatLow(k int) *flatList {
	return &flatList{k: k, worse: func(a, b float64) bool { return a > b }}
}

func newFlatHigh(k int) *flatList {
	return &flatList{k: k, worse: func(a, b float64) bool { return a < b }}
}

// TestBoundedMatchesRescanAndSortOracle drives R_low and R_high (a
// bounded over negated values) with random streams drawn from a small
// value alphabet — so duplicates, and ties with the current threshold,
// are the common case, and 0 arrives as −0 or +0 at random — at k from 1
// up, with clear() landing mid-stream. After every operation the held
// slots equal the k smallest (largest) of everything since the last
// clear, slot for slot in sorted order; the held multiset and
// max()/min() match the sort oracle; and max()/min() carry the same bits
// as the flat lists', which is where −0 and +0 would part.
func TestBoundedMatchesRescanAndSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	negZero := math.Copysign(0, -1)
	signedZeros := 0
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(6)
		alphabet := 2 + rng.Intn(6)
		lo, hi := newBounded(k), newBounded(k)
		refLo, refHi := newFlatLow(k), newFlatHigh(k)
		var seen []float64
		for op := 0; op < 120; op++ {
			if rng.Intn(25) == 0 {
				lo.clear()
				hi.clear()
				refLo.vals, refHi.vals, seen = refLo.vals[:0], refHi.vals[:0], seen[:0]
				if lo.held() != 0 || hi.held() != 0 {
					t.Fatalf("trial %d: clear left %d/%d values", trial, lo.held(), hi.held())
				}
				continue
			}
			v := float64(rng.Intn(alphabet)) / float64(alphabet-1)
			if v == 0 && rng.Intn(2) == 0 {
				v = negZero
			}
			lo.add(v)
			hi.add(-v)
			refLo.add(v)
			refHi.add(v)
			seen = append(seen, v)
			sorted := append([]float64(nil), seen...)
			sort.Float64s(sorted)
			kk := min(k, len(sorted))
			slotsLo, slotsHi := make([]float64, lo.held()), make([]float64, hi.held())
			for i, s := range lo.slots {
				slotsLo[i] = s.v
			}
			for i, s := range hi.slots {
				slotsHi[len(slotsHi)-1-i] = -s.v
			}
			if !reflect.DeepEqual(slotsLo, sorted[:kk]) || !reflect.DeepEqual(slotsHi, sorted[len(sorted)-kk:]) {
				t.Fatalf("trial %d k=%d op %d: slots low %v high %v of stream %v", trial, k, op, slotsLo, slotsHi, sorted)
			}
			heldLo := append([]float64(nil), refLo.vals...)
			heldHi := append([]float64(nil), refHi.vals...)
			sort.Float64s(heldLo)
			sort.Float64s(heldHi)
			if !reflect.DeepEqual(heldLo, slotsLo) || !reflect.DeepEqual(heldHi, slotsHi) {
				t.Fatalf("trial %d k=%d op %d: held low %v high %v, flat lists %v %v",
					trial, k, op, slotsLo, slotsHi, heldLo, heldHi)
			}
			gotLo, gotHi := lo.max(), -hi.max()
			if gotLo != sorted[kk-1] || gotHi != sorted[len(sorted)-kk] {
				t.Fatalf("trial %d k=%d op %d: max(Rlow)=%g min(Rhigh)=%g, want %g %g",
					trial, k, op, gotLo, gotHi, sorted[kk-1], sorted[len(sorted)-kk])
			}
			wantLo, wantHi := refLo.extreme(), refHi.extreme()
			if math.Float64bits(gotLo) != math.Float64bits(wantLo) || math.Float64bits(gotHi) != math.Float64bits(wantHi) {
				t.Fatalf("trial %d k=%d op %d: max(Rlow)=%v min(Rhigh)=%v, flat lists %v %v (stream %v)",
					trial, k, op, gotLo, gotHi, wantLo, wantHi, seen)
			}
			if gotLo == 0 && math.Signbit(gotLo) != math.Signbit(sorted[kk-1]) {
				signedZeros++
			}
		}
	}
	if signedZeros < 10 {
		t.Errorf("only %d checks had the flat list's zero sign differ from the sort oracle's — ±0 nearly untested", signedZeros)
	}
}

// TestBoundedAllNaN: once NaNs have taken every slot (a first value
// that is NaN, as a DBAC whose own value became NaN stores it), the
// list rejects every value and max is NaN rather than indexing an
// empty list.
func TestBoundedAllNaN(t *testing.T) {
	for k := 1; k <= 3; k++ {
		b := newBounded(k)
		for range k {
			b.add(math.NaN())
		}
		for _, v := range []float64{0.5, math.Inf(-1), 0, math.NaN()} {
			b.add(v)
		}
		if len(b.slots) != 0 || !math.IsNaN(b.max()) {
			t.Errorf("k=%d: slots %v, max %v; want none and NaN", k, b.slots, b.max())
		}
	}
}

// TestBoundedNaNHoldsASlot: Byzantine values are not validated, so a
// custom strategy can send NaN. No comparison with NaN is true, so in
// the flat list a NaN that arrives while there is room takes a slot for
// the rest of the phase and is never returned or overwritten, and one
// that arrives when the list is full is dropped. A NaN first value is
// the flat list's extreme for the rest of the phase, as no value
// compares above it. The sorted lists must do the same: bit for bit
// where the result is a number, and NaN where the flat list's is (a
// NaN's bits are not compared, as −hi.max() flips its sign). Only a
// stream whose first value is NaN may return one.
func TestBoundedNaNHoldsASlot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []float64{math.NaN(), math.Copysign(0, -1), 0, 0.25, 0.5, 1}
	held, nanFirst := 0, 0
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		lo, hi := newBounded(k), newBounded(k)
		refLo, refHi := newFlatLow(k), newFlatHigh(k)
		first := math.NaN()
		for op := 0; op < 60; op++ {
			v := alphabet[rng.Intn(len(alphabet))]
			if op == 0 {
				first = v
			}
			lo.add(v)
			hi.add(-v)
			refLo.add(v)
			refHi.add(v)
			if lo.held() != len(refLo.vals) || hi.held() != len(refHi.vals) {
				t.Fatalf("trial %d k=%d op %d: %d/%d held, flat lists %d/%d",
					trial, k, op, lo.held(), hi.held(), len(refLo.vals), len(refHi.vals))
			}
			gotLo, gotHi, wantLo, wantHi := lo.max(), -hi.max(), refLo.extreme(), refHi.extreme()
			if !sameResult(gotLo, wantLo) || !sameResult(gotHi, wantHi) {
				t.Fatalf("trial %d k=%d op %d: max(Rlow)=%v min(Rhigh)=%v, flat lists %v %v (held %v %v)",
					trial, k, op, gotLo, gotHi, wantLo, wantHi, refLo.vals, refHi.vals)
			}
			if !math.IsNaN(first) && (math.IsNaN(gotLo) || math.IsNaN(gotHi)) {
				t.Fatalf("trial %d k=%d op %d: a NaN was returned after a first value %v", trial, k, op, first)
			}
		}
		if lo.held() > len(lo.slots) {
			held++
		}
		if math.IsNaN(first) {
			nanFirst++
		}
	}
	if held < 50 || nanFirst < 20 {
		t.Errorf("only %d trials ended holding a NaN, %d began with one — property nearly vacuous", held, nanFirst)
	}
}

// sameResult reports whether got is want bit for bit, or both are NaN.
func sameResult(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}
