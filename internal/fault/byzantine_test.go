package fault

import (
	"math/rand"
	"testing"

	"anondyn/internal/core"
)

// testView is a fault.View with fixed snapshots.
type testView []core.Snapshot

func (v testView) N() int                       { return len(v) }
func (v testView) Snapshot(i int) core.Snapshot { return v[i] }

func flatView(n int) testView {
	return make(testView, n)
}

func TestSilent(t *testing.T) {
	msgs := Silent{}.Messages(0, 2, flatView(5))
	if len(msgs) != 5 {
		t.Fatalf("len = %d, want 5", len(msgs))
	}
	for i, m := range msgs {
		if m != nil {
			t.Errorf("receiver %d got a message from a silent node", i)
		}
	}
}

func TestExtremist(t *testing.T) {
	msgs := Extremist{Value: 1}.Messages(3, 0, flatView(4))
	for i, m := range msgs {
		if m == nil {
			t.Fatalf("receiver %d got nothing", i)
		}
		if m.Value != 1 {
			t.Errorf("receiver %d value = %g, want 1", i, m.Value)
		}
		// The claimed phase must dominate any real phase so the value is
		// always counted by DBAC's pj ≥ pi rule.
		if m.Phase < 1<<20 {
			t.Errorf("claimed phase %d too small to dominate", m.Phase)
		}
	}
}

func TestEquivocatorSplitsByHalf(t *testing.T) {
	msgs := Equivocator{Low: 0, High: 1}.Messages(0, 0, flatView(6))
	for i := 0; i < 3; i++ {
		if msgs[i].Value != 0 {
			t.Errorf("low receiver %d got %g", i, msgs[i].Value)
		}
	}
	for i := 3; i < 6; i++ {
		if msgs[i].Value != 1 {
			t.Errorf("high receiver %d got %g", i, msgs[i].Value)
		}
	}
}

func TestSplitBrain(t *testing.T) {
	s := SplitBrain{
		InA:    func(r int) bool { return r%2 == 0 },
		ValueA: 0.1,
		ValueB: 0.9,
	}
	msgs := s.Messages(0, 1, flatView(4))
	if msgs[0].Value != 0.1 || msgs[2].Value != 0.1 {
		t.Error("A-receivers got the wrong face")
	}
	if msgs[1].Value != 0.9 || msgs[3].Value != 0.9 {
		t.Error("B-receivers got the wrong face")
	}
	// nil InA means everyone sees ValueB.
	all := SplitBrain{ValueA: 0.1, ValueB: 0.9}.Messages(0, 1, flatView(3))
	for i, m := range all {
		if m.Value != 0.9 {
			t.Errorf("receiver %d = %g, want 0.9", i, m.Value)
		}
	}
}

func TestRandomNoiseDeterministicPerSeed(t *testing.T) {
	a := NewRandomNoise(42)
	b := NewRandomNoise(42)
	view := flatView(5)
	for round := 0; round < 3; round++ {
		ma := a.Messages(round, 0, view)
		mb := b.Messages(round, 0, view)
		for i := range ma {
			if ma[i].Value != mb[i].Value || ma[i].Phase != mb[i].Phase {
				t.Fatalf("round %d receiver %d differs across same-seed instances", round, i)
			}
		}
	}
}

// TestRandomNoiseStreamPinned pins RandomNoise's stream against math/rand:
// per round, per receiver in ID order, Value is the next Float64 and
// the phase offset the next Intn(3) of rand.NewSource(seed) — through a
// fresh instance and through one rewound with Reseed. 200 rounds of 7
// receivers draw well past the generator's 607-word register.
func TestRandomNoiseStreamPinned(t *testing.T) {
	view := make(testView, 7)
	for i := range view {
		view[i] = core.Snapshot{Phase: i}
	}
	for _, seed := range []int64{0, 1, -5, 20261015} {
		fresh := NewRandomNoise(seed)
		rewound := NewRandomNoise(seed + 1)
		rewound.Messages(0, 0, view)
		rewound.Reseed(seed)
		ref := rand.New(rand.NewSource(seed))
		for round := 0; round < 200; round++ {
			a, b := fresh.Messages(round, 0, view), rewound.Messages(round, 0, view)
			for i := range view {
				value := ref.Float64()
				phase := view[i].Phase + ref.Intn(3)
				for _, m := range []*core.Message{a[i], b[i]} {
					if m.Value != value || m.Phase != phase {
						t.Fatalf("seed %d round %d receiver %d: (%v, %d), math/rand (%v, %d)",
							seed, round, i, m.Value, m.Phase, value, phase)
					}
				}
			}
		}
	}
}

func TestRandomNoiseValuesInRange(t *testing.T) {
	r := NewRandomNoise(7)
	view := make(testView, 6)
	for i := range view {
		view[i] = core.Snapshot{Phase: 3}
	}
	for round := 0; round < 10; round++ {
		for i, m := range r.Messages(round, 0, view) {
			if m.Value < 0 || m.Value > 1 {
				t.Fatalf("receiver %d value %g outside [0,1]", i, m.Value)
			}
			if m.Phase < 3 || m.Phase > 5 {
				t.Fatalf("receiver %d phase %d outside receiver+[0,2]", i, m.Phase)
			}
		}
	}
}

func TestLaggard(t *testing.T) {
	msgs := Laggard{Value: 0.3}.Messages(9, 0, flatView(3))
	for _, m := range msgs {
		if m.Phase != 0 || m.Value != 0.3 {
			t.Errorf("laggard sent %v, want phase-0 0.3", m)
		}
	}
}

func TestMimic(t *testing.T) {
	view := testView{
		{Value: 0.7, Phase: 4},
		{},
	}
	msgs := Mimic{Target: 0}.Messages(0, 1, view)
	for _, m := range msgs {
		if m.Value != 0.7 || m.Phase != 4 {
			t.Errorf("mimic sent %v, want target's ⟨0.7, 4⟩", m)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	strategies := []Strategy{
		Silent{}, Extremist{Value: 1}, Equivocator{Low: 0, High: 1},
		SplitBrain{}, NewRandomNoise(1), Laggard{}, Mimic{Target: 2},
	}
	seen := make(map[string]bool)
	for _, s := range strategies {
		name := s.Name()
		if name == "" {
			t.Errorf("%T has empty name", s)
		}
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
}

// TestMessagesIntoMatchesMessages: for every built-in strategy and
// random (n, round, self, view), the in-place seam and the allocating
// entry point say the same thing — same nil pattern, same value and
// phase per receiver — and both say what the strategy's definition says
// (want, written per receiver and independent of either body). The
// in-place storage arrives dirty, as the engine's does from the previous
// round: stale pointers, stale histories, every slot must be rewritten.
func TestMessagesIntoMatchesMessages(t *testing.T) {
	type face struct {
		silent bool
		value  float64
		phase  int
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		round, self := rng.Intn(100), rng.Intn(n)
		view := make(testView, n)
		for i := range view {
			view[i] = core.Snapshot{Value: rng.Float64(), Phase: rng.Intn(50)}
		}
		lo, hi, target := rng.Float64(), rng.Float64(), rng.Intn(n)
		inA := func(r int) bool { return r%3 == trial%3 }
		noiseSeed := rng.Int63()
		noise := rand.New(rand.NewSource(noiseSeed))
		cases := []struct {
			mk   func() Strategy // fresh per entry point: RandomNoise carries a stream
			want func(receiver int) face
		}{
			{func() Strategy { return Silent{} }, func(int) face { return face{silent: true} }},
			{func() Strategy { return Extremist{Value: hi} }, func(int) face { return face{value: hi, phase: farFuture} }},
			{func() Strategy { return Equivocator{Low: lo, High: hi} }, func(r int) face {
				if r < n/2 {
					return face{value: lo, phase: farFuture}
				}
				return face{value: hi, phase: farFuture}
			}},
			{func() Strategy { return SplitBrain{InA: inA, ValueA: lo, ValueB: hi} }, func(r int) face {
				if inA(r) {
					return face{value: lo, phase: farFuture}
				}
				return face{value: hi, phase: farFuture}
			}},
			{func() Strategy { return NewRandomNoise(noiseSeed) }, func(r int) face {
				// Stream contract: value, then phase offset, receivers in ID order.
				return face{value: noise.Float64(), phase: view[r].Phase + noise.Intn(3)}
			}},
			{func() Strategy { return Laggard{Value: lo} }, func(int) face { return face{value: lo} }},
			{func() Strategy { return Mimic{Target: target} }, func(int) face {
				return face{value: view[target].Value, phase: view[target].Phase}
			}},
		}
		for _, c := range cases {
			alloc := c.mk().Messages(round, self, view)
			msgs, out := make([]core.Message, n), make([]*core.Message, n)
			stale := core.Message{Value: -1, Phase: -1, History: []core.HistEntry{{Value: 9, Phase: 9}}}
			for i := range msgs {
				msgs[i] = stale
				out[i] = &stale
			}
			strat := c.mk()
			strat.MessagesInto(round, self, view, msgs, out)
			if len(alloc) != n {
				t.Fatalf("%s: Messages returned %d entries for n=%d", strat.Name(), len(alloc), n)
			}
			for r := 0; r < n; r++ {
				want := c.want(r)
				for path, m := range map[string]*core.Message{"Messages": alloc[r], "MessagesInto": out[r]} {
					switch {
					case want.silent != (m == nil):
						t.Fatalf("%s n=%d receiver %d: %s silent=%v, want %v", strat.Name(), n, r, path, m == nil, want.silent)
					case m != nil && (m.Value != want.value || m.Phase != want.phase || m.History != nil):
						t.Fatalf("%s n=%d receiver %d: %s sent %+v, want ⟨%g, %d⟩", strat.Name(), n, r, path, *m, want.value, want.phase)
					}
				}
			}
		}
	}
}
