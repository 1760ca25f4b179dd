package core_test

import (
	"math"
	"math/rand"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/sim"
)

// checkedPopulation is a PopulationOf population that checks, right
// after every BroadcastAll, that its table and msgs equal a full recopy.
type checkedPopulation struct {
	core.Population
	t     *testing.T
	name  string
	calls int
}

func (c *checkedPopulation) BroadcastAll(live []bool, msgs []core.Message) {
	c.Population.BroadcastAll(live, msgs)
	c.calls++
	if i := core.StaleEntry(c.Population, msgs); i >= 0 {
		c.t.Fatalf("%s: BroadcastAll call %d left node %d stale: ⟨%v, %d⟩ in msgs",
			c.name, c.calls, i, msgs[i].Value, msgs[i].Phase)
	}
}

// farJump is a Byzantine sender from far past pEnd: every receiver gets
// ⟨x, pEnd+3⟩, x cycling through 0.25, +0 and −0 by round. Every honest
// node that hears it jumps, clamped at pEnd, so from its second jump on
// only its value changes — in the last step, only its sign.
type farJump struct{ pEnd int }

func (farJump) Name() string { return "far-jump" }

func (s farJump) MessagesInto(round, _ int, _ fault.View, msgs []core.Message, out []*core.Message) {
	msgs[0] = core.Message{Value: []float64{0.25, 0, math.Copysign(0, -1)}[round%3], Phase: s.pEnd + 3}
	for i := range out {
		out[i] = &msgs[0]
	}
}

func (s farJump) Messages(round, self int, view fault.View) []*core.Message {
	msgs, out := make([]core.Message, view.N()), make([]*core.Message, view.N())
	s.MessagesInto(round, self, view, msgs, out)
	return out
}

// TestBroadcastAllCopiesWhatChanged: a DAC population's BroadcastAll
// rewrites only the nodes whose ⟨v, p⟩ changed since its last call, yet
// after every call its start-of-round table and msgs equal a full
// recopy, bit for bit. The engine drives it through every delivery
// call: DeliverCSR on er2 and rotating CSR rounds (pruned after
// crashes), DeliverAll in rounds with a partial crash and with a
// far-future Byzantine sender (clamped jumps that change v alone, down
// to a ±0 flip), DeliverWords at n ≤ 64 and DeliverRow on dense rows
// past it. Each case then runs again on the recycled engine after
// Reinit, on a fresh engine (a fresh msgs slice) without it, and once
// by hand into a fresh slice.
func TestBroadcastAllCopiesWhatChanged(t *testing.T) {
	const pEnd = 4
	cases := []struct {
		name     string
		n        int
		adv      func() adversary.Adversary
		forceCSR bool
		crashes  fault.Schedule
		byz      bool
	}{
		{name: "er2", n: 300, forceCSR: true, adv: func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.05, 7)) }},
		{name: "er2/crashes", n: 300, forceCSR: true, adv: func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.05, 8)) },
			crashes: fault.Schedule{3: fault.CrashAt(1), 50: fault.CrashSilent(2), 120: fault.CrashPartial(3, 4, 5)}},
		{name: "rotating", n: 257, forceCSR: true, adv: func() adversary.Adversary { return must(adversary.NewRotating(128)) }},
		{name: "rotating/crashes", n: 257, forceCSR: true, adv: func() adversary.Adversary { return must(adversary.NewRotating(128)) },
			crashes: fault.Schedule{0: fault.CrashSilent(0), 9: fault.CrashAt(2), 200: fault.CrashPartial(1, 3)}},
		{name: "words", n: 40, adv: func() adversary.Adversary { return must(adversary.NewProbabilistic(0.5, 9)) },
			crashes: fault.Schedule{5: fault.CrashSilent(1)}},
		{name: "dense", n: 100, adv: func() adversary.Adversary { return must(adversary.NewProbabilistic(0.5, 10)) },
			crashes: fault.Schedule{7: fault.CrashSilent(1)}},
		{name: "byzantine/csr", n: 300, forceCSR: true, byz: true, adv: func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.05, 11)) }},
		{name: "byzantine/dense", n: 30, byz: true, adv: func() adversary.Adversary { return adversary.NewComplete() }},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(int64(c.n)))
		inputs := func() []float64 {
			in := make([]float64, c.n)
			for i := range in {
				in[i] = rng.Float64()
			}
			return in
		}
		var byz map[int]fault.Strategy
		if c.byz {
			byz = map[int]fault.Strategy{c.n - 1: farJump{pEnd}}
		}
		dacs := must(core.NewDACPopulation(pEnd, core.CrashQuorum(c.n), false, func(i int) int { return i }, inputs(),
			func(i int) bool { return byz[i] != nil }))
		procs := make([]core.Process, c.n)
		for i := range procs {
			if byz[i] == nil {
				procs[i] = &dacs[i]
			}
		}
		pop := &checkedPopulation{Population: core.PopulationOf(dacs), t: t, name: c.name}
		config := func() sim.Config {
			return sim.Config{N: c.n, F: len(c.crashes) + len(byz), Procs: procs, Adversary: c.adv(),
				Crashes: c.crashes, Byzantine: byz, MaxRounds: 60, ForceCSR: c.forceCSR}
		}
		eng := new(sim.Engine)
		run := func(eng *sim.Engine) {
			if err := eng.ResetPopulation(config(), pop); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			eng.RunRounds(10)
		}
		run(eng)
		pop.name = c.name + "/reinit"
		for i, in := range inputs() {
			if byz[i] == nil {
				pop.Reinit(i, in)
			}
		}
		run(eng)
		pop.name = c.name + "/fresh engine"
		run(new(sim.Engine))
		pop.name = c.name + "/fresh slice"
		live := make([]bool, c.n)
		for i := range live {
			live[i] = byz[i] == nil
		}
		pop.BroadcastAll(live, make([]core.Message, c.n))
		if pop.calls < 30 {
			t.Errorf("%s: %d BroadcastAll calls checked", c.name, pop.calls)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
