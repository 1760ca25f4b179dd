package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDeliverySequence drives a Process with an arbitrary message
// stream and checks the state-machine invariants that hold regardless of
// what the network or Byzantine senders do:
//
//  1. the phase is non-decreasing and never exceeds pEnd;
//  2. the state value stays inside the convex hull of the input and all
//     delivered values (both algorithms only copy or average);
//  3. once decided, the output never changes.
func checkStateMachineInvariants(t *testing.T, build func() (Process, int), seed int64) {
	t.Helper()
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(seed))}
	property := func(rawPorts []uint8, rawVals []uint16, rawPhases []uint8) bool {
		p, pEnd := build()
		lo, hi := p.Value(), p.Value()
		lastPhase := p.Phase()
		var out float64
		var decided bool
		steps := len(rawPorts)
		if len(rawVals) < steps {
			steps = len(rawVals)
		}
		if len(rawPhases) < steps {
			steps = len(rawPhases)
		}
		for i := 0; i < steps; i++ {
			port := int(rawPorts[i]) % 6
			val := float64(rawVals[i]) / 65535
			phase := int(rawPhases[i]) % (pEnd + 3) // includes beyond-pEnd claims
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
			p.DeliverAll([]Delivery{{Port: port, Msg: Message{Value: val, Phase: phase}}})

			if p.Phase() < lastPhase {
				t.Logf("phase regressed %d → %d", lastPhase, p.Phase())
				return false
			}
			lastPhase = p.Phase()
			if p.Phase() > pEnd {
				t.Logf("phase %d exceeded pEnd %d", p.Phase(), pEnd)
				return false
			}
			const slack = 1e-12
			if v := p.Value(); v < lo-slack || v > hi+slack {
				t.Logf("value %g escaped hull [%g,%g]", v, lo, hi)
				return false
			}
			if v, ok := p.Output(); ok {
				if decided && v != out {
					t.Logf("output changed %g → %g", out, v)
					return false
				}
				decided, out = true, v
			} else if decided {
				t.Log("decision retracted")
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestDACStateMachineInvariants(t *testing.T) {
	checkStateMachineInvariants(t, func() (Process, int) {
		d, err := NewDACPhases(6, 0, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return d, 5
	}, 42)
}

func TestDBACStateMachineInvariants(t *testing.T) {
	checkStateMachineInvariants(t, func() (Process, int) {
		d, err := NewDBACPhases(6, 1, 0, 5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return d, 5
	}, 43)
}

func TestDBACPiggybackStateMachineInvariants(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		checkStateMachineInvariants(t, func() (Process, int) {
			d, err := NewDBACPiggybackPhases(6, 1, 0, k, 5, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return d, 5
		}, 44+int64(k))
	}
}

// TestDACLockStepQuickConvergence: for random inputs, a fault-free
// lock-step full mesh must satisfy validity and contract at rate ≤ 1/2
// per phase (Theorem 3 with the benign adversary).
func TestDACLockStepQuickConvergence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	property := func(raw [5]uint16) bool {
		n := 5
		const phases = 6
		inputs := make([]float64, n)
		lo, hi := 1.0, 0.0
		for i, r := range raw {
			inputs[i] = float64(r) / 65535
			lo = math.Min(lo, inputs[i])
			hi = math.Max(hi, inputs[i])
		}
		nodes := make([]*DAC, n)
		for i := range nodes {
			d, err := NewDACPhases(n, i, phases, inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = d
		}
		for round := 0; round < phases; round++ {
			msgs := make([]Message, n)
			for i, d := range nodes {
				msgs[i] = d.Broadcast()
			}
			for i, d := range nodes {
				for j := range nodes {
					if j != i {
						d.Deliver(Delivery{Port: j, Msg: msgs[j]})
					}
				}
			}
		}
		vlo, vhi := math.Inf(1), math.Inf(-1)
		for _, d := range nodes {
			v, ok := d.Output()
			if !ok {
				return false
			}
			if v < lo-1e-12 || v > hi+1e-12 {
				return false // validity violated
			}
			vlo = math.Min(vlo, v)
			vhi = math.Max(vhi, v)
		}
		return vhi-vlo <= (hi-lo)*math.Pow(0.5, phases)+1e-12
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
