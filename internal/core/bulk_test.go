package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestDeliverAllFoldEquivalenceProperty is Process.DeliverAll's contract:
// for random delivery streams chopped into random chunks, DeliverAll on
// one instance must track Deliver-one-at-a-time on a twin instance
// through every observable — and, the twins being the same type, every
// private field (a DAC's R compared as a set of ports, so a population
// node can face a lone twin) — after every chunk, including
// jump/quorum phase transitions landing mid-chunk. The DAC variants are
// the ones DAC.DeliverAll's inlined same-phase loop could get wrong:
// quorum 1 advances on EVERY processed message (stale and already-
// counted ones included), the no-jump ablation drops future phases.
func TestDeliverAllFoldEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// step is the per-message twin: DAC, DBAC and DBACPiggyback keep a
	// concrete Deliver as the reference DeliverAll must fold like.
	type stepper interface {
		Process
		Deliver(Delivery)
	}
	type pair struct {
		name string
		bulk Process
		step stepper
	}
	mkPairs := func(n, f int, input float64) []pair {
		mk := func(build func() (stepper, error)) stepper {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		dacA := mk(func() (stepper, error) { return NewDACPhases(n, 0, 6, input) })
		dacB := mk(func() (stepper, error) { return NewDACPhases(n, 0, 6, input) })
		dbacA := mk(func() (stepper, error) { return NewDBACPhases(n, f, 0, 6, input) })
		dbacB := mk(func() (stepper, error) { return NewDBACPhases(n, f, 0, 6, input) })
		pbA := mk(func() (stepper, error) { return NewDBACPiggybackPhases(n, f, 0, 2, 6, input) })
		pbB := mk(func() (stepper, error) { return NewDBACPiggybackPhases(n, f, 0, 2, 6, input) })
		q1A := mk(func() (stepper, error) { return NewDACCustom(n, 0, 6, 1, input) })
		q1B := mk(func() (stepper, error) { return NewDACCustom(n, 0, 6, 1, input) })
		q2A := mk(func() (stepper, error) { return NewDACCustom(n, 0, 40, 2, input) })
		q2B := mk(func() (stepper, error) { return NewDACCustom(n, 0, 40, 2, input) })
		njA := mk(func() (stepper, error) { return NewDACNoJumpPhases(n, 0, 6, input) })
		njB := mk(func() (stepper, error) { return NewDACNoJumpPhases(n, 0, 6, input) })
		// A middle node of a population (self port 0 for every node):
		// its R is one column of a tiled matrix, its twin's a bitset.
		pop, err := NewDACPopulation(6, CrashQuorum(n), false, func(int) int { return 0 }, slices.Repeat([]float64{input}, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		tiledB := mk(func() (stepper, error) { return NewDACPhases(n, 0, 6, input) })
		return []pair{
			{"DAC", dacA, dacB},
			{"DAC/tiled", &pop[n/2], tiledB},
			{"DAC/quorum=1", q1A, q1B},
			{"DAC/quorum=2", q2A, q2B},
			{"DAC/noJump", njA, njB},
			{"DBAC", dbacA, dbacB},
			{"DBACPiggyback", pbA, pbB},
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(60)
		f := rng.Intn(1 + (n-1)/5)
		input := rng.Float64()
		for _, pr := range mkPairs(n, f, input) {
			for round := 0; round < 30; round++ {
				chunk := make([]Delivery, rng.Intn(n))
				maxPhase := pr.step.Phase() + 3
				for i := range chunk {
					hist := []HistEntry(nil)
					if rng.Intn(3) == 0 {
						hist = []HistEntry{{Value: rng.Float64(), Phase: rng.Intn(maxPhase + 1)}}
					}
					chunk[i] = Delivery{
						Port: 1 + rng.Intn(n-1), // port 0 is self, never delivered by engines
						Msg: Message{
							Value:   rng.Float64(),
							Phase:   rng.Intn(maxPhase + 1),
							History: hist,
						},
					}
				}
				pr.bulk.DeliverAll(chunk)
				for i := range chunk {
					pr.step.Deliver(chunk[i])
				}
				pr.bulk.EndRound()
				pr.step.EndRound()
				if got, want := pr.bulk.Broadcast(), pr.step.Broadcast(); got.Value != want.Value || got.Phase != want.Phase {
					t.Fatalf("trial %d %s round %d: Broadcast ⟨%v,%d⟩ vs ⟨%v,%d⟩",
						trial, pr.name, round, got.Value, got.Phase, want.Value, want.Phase)
				}
				if got, want := pr.bulk.Phase(), pr.step.Phase(); got != want {
					t.Fatalf("trial %d %s round %d: Phase %d vs %d", trial, pr.name, round, got, want)
				}
				if got, want := pr.bulk.Value(), pr.step.Value(); got != want {
					t.Fatalf("trial %d %s round %d: Value %v vs %v", trial, pr.name, round, got, want)
				}
				gv, gok := pr.bulk.Output()
				wv, wok := pr.step.Output()
				if gv != wv || gok != wok {
					t.Fatalf("trial %d %s round %d: Output (%v,%v) vs (%v,%v)",
						trial, pr.name, round, gv, gok, wv, wok)
				}
				if got, want := canonical(pr.bulk), canonical(pr.step); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s round %d: private state diverged\nbulk %+v\nstep %+v",
						trial, pr.name, round, got, want)
				}
			}
		}
	}
}

// TestDACDeliverAllMidSliceTransitions scripts the slices where the
// inlined loop's shortcuts meet a phase change, and checks them against
// the per-edge fold AND against what Algorithm 1 says the outcome is.
func TestDACDeliverAllMidSliceTransitions(t *testing.T) {
	msg := func(port int, v float64, p int) Delivery {
		return Delivery{Port: port, Msg: Message{Value: v, Phase: p}}
	}
	cases := []struct {
		name      string
		build     func() (*DAC, error)
		slices    [][]Delivery
		wantPhase int
		wantValue float64
		wantOut   float64 // decision; NaN-free: checked only when wantDone
		wantDone  bool
	}{
		{
			// n=5: quorum 3. Ports 1,2 complete phase 0 mid-slice (v becomes
			// (0+1)/2); ports 3,4 then deliver phase-1 states in the SAME
			// slice and complete phase 1: midpoint of {0.5, 0.25, 0.75}.
			name:  "quorum mid-slice, then the new phase in the same slice",
			build: func() (*DAC, error) { return NewDACPhases(5, 0, 9, 0) },
			slices: [][]Delivery{{
				msg(1, 1, 0), msg(2, 0.5, 0), msg(3, 0.25, 1), msg(4, 0.75, 1),
			}},
			wantPhase: 2, wantValue: 0.5,
		},
		{
			// A stale duplicate of a counted port between the two: the bit is
			// already set after the reset only for self, so port 1's phase-0
			// message after the advance is stale (phase 0 < 1) and ignored.
			name:  "stale message after a mid-slice advance is ignored",
			build: func() (*DAC, error) { return NewDACPhases(5, 0, 9, 0) },
			slices: [][]Delivery{{
				msg(1, 1, 0), msg(2, 1, 0), msg(1, 0, 0), msg(3, 1, 1),
			}},
			wantPhase: 1, wantValue: 0.5,
		},
		{
			// pEnd=1: the quorum decides 0.5 mid-slice; a later claim from
			// phase 7 > pEnd still jumps (v ← 0.9, p clamped to pEnd) but the
			// decision stays the value at the first p ≥ pEnd.
			name:  "jump above pEnd after deciding keeps the decision",
			build: func() (*DAC, error) { return NewDACPhases(5, 0, 1, 0) },
			slices: [][]Delivery{{
				msg(1, 1, 0), msg(2, 1, 0), msg(3, 0.9, 7), msg(4, 0.1, 1),
			}},
			wantPhase: 1, wantValue: 0.9, wantOut: 0.5, wantDone: true,
		},
		{
			// Deciding BY a jump above pEnd: the decision is the jumped value.
			name:  "jump above pEnd decides the adopted value",
			build: func() (*DAC, error) { return NewDACPhases(5, 0, 3, 0) },
			slices: [][]Delivery{{
				msg(1, 1, 0), msg(2, 0.7, 9), msg(3, 0.2, 3), msg(4, 0.3, 3),
			}},
			wantPhase: 3, wantValue: 0.7, wantOut: 0.7, wantDone: true,
		},
		{
			// Quorum 1: every processed message advances — the fresh one and
			// the two stale ones alike.
			name:  "quorum 1 advances on every processed message",
			build: func() (*DAC, error) { return NewDACCustom(5, 0, 9, 1, 0.25) },
			slices: [][]Delivery{{
				msg(1, 0.75, 0), msg(1, 0, 0), msg(2, 1, 0),
			}},
			wantPhase: 3, wantValue: 0.5,
		},
		{
			// The ablation discards the future state; the same-phase ones
			// around it still count and complete the quorum.
			name:  "noJump drops a future phase mid-slice",
			build: func() (*DAC, error) { return NewDACNoJumpPhases(5, 0, 9, 0) },
			slices: [][]Delivery{{
				msg(1, 1, 0), msg(2, 0.9, 4), msg(3, 1, 0),
			}},
			wantPhase: 1, wantValue: 0.5,
		},
		{
			// Across slices: the port bits survive the call boundary, so a
			// repeat of port 1 in the next round is not counted twice.
			name:  "a counted port is not recounted in the next slice",
			build: func() (*DAC, error) { return NewDACPhases(5, 0, 9, 0) },
			slices: [][]Delivery{
				{msg(1, 1, 0)},
				{msg(1, 1, 0)},
			},
			wantPhase: 0, wantValue: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bulk, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			step, _ := c.build()
			for _, ds := range c.slices {
				bulk.DeliverAll(ds)
				for _, d := range ds {
					step.Deliver(d)
				}
			}
			if got, want := canonical(bulk), canonical(step); !reflect.DeepEqual(got, want) {
				t.Fatalf("DeliverAll diverged from the per-edge fold\nbulk %+v\nstep %+v", got, want)
			}
			if bulk.Phase() != c.wantPhase || bulk.Value() != c.wantValue {
				t.Errorf("ended at ⟨%v, %d⟩, want ⟨%v, %d⟩", bulk.Value(), bulk.Phase(), c.wantValue, c.wantPhase)
			}
			if out, done := bulk.Output(); done != c.wantDone || (done && out != c.wantOut) {
				t.Errorf("Output (%v, %v), want (%v, %v)", out, done, c.wantOut, c.wantDone)
			}
		})
	}
}
