package anondyn_test

import (
	"bytes"
	"fmt"
	"reflect"

	"anondyn"
)

// ExampleScenario runs the smallest meaningful configuration: DAC among
// five nodes on the benign complete-graph adversary. One phase per
// round, range halving each phase — Theorem 3 at its friendliest.
func ExampleScenario() {
	res, err := anondyn.Scenario{
		N: 5, F: 2, Eps: 0.01,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(5), // 0, 0.25, 0.5, 0.75, 1
		Adversary: anondyn.Complete(),
	}.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decided:", res.Decided)
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("ε-agreement:", res.EpsAgreement(0.01))
	fmt.Println("validity:", res.Valid())
	// Output:
	// decided: true
	// rounds: 7
	// ε-agreement: true
	// validity: true
}

// ExampleScenario_impossibility reproduces Theorem 9's necessity
// direction: below the ⌊n/2⌋ dynaDegree threshold the real DAC refuses
// to terminate.
func ExampleScenario_impossibility() {
	res, err := anondyn.Scenario{
		N: 6, Eps: 0.01,
		Algorithm: anondyn.AlgoDAC,
		Unchecked: true,
		Inputs:    anondyn.SplitInputs(6, 3),
		Adversary: anondyn.Halves(6), // (1, 2)-dynaDegree < ⌊6/2⌋
		MaxRounds: 100,
	}.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decided:", res.Decided)
	// Output:
	// decided: false
}

// ExampleMinTForDegree checks §II's connectivity notions on recorded
// traces. Figure 1's schedule gives every node an in-neighbor within
// any two rounds — (2,1)-dynaDegree, enough for DAC at n = 3 — yet every
// other round is empty, so no round is rooted and no window keeps a
// stable connected subgraph: the conditions of earlier work fail where
// the paper's holds.
func ExampleMinTForDegree() {
	for _, adv := range []anondyn.Adversary{anondyn.Fig1(), anondyn.Complete()} {
		res, err := anondyn.Scenario{
			N: 3, Eps: 0.01,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.SpreadInputs(3),
			Adversary: adv,
			KeepTrace: true,
		}.Run()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		tr, ff := res.Trace, res.FaultFree
		fmt.Printf("%s: decided=%v rounds=%d T(D=1)=%d rooted=%v 2-interval=%v\n",
			adv.Name(), res.Decided, res.Rounds, anondyn.MinTForDegree(tr, ff, 1),
			anondyn.EveryRoundRooted(tr), anondyn.TIntervalConnected(tr, 2))
	}
	// Output:
	// periodic:fig1: decided=true rounds=13 T(D=1)=2 rooted=false 2-interval=false
	// complete: decided=true rounds=7 T(D=1)=1 rooted=true 2-interval=true
}

// ExampleSplitBrain runs DBAC against the Theorem 10 two-faced input:
// the Byzantine node tells the lower half of the receivers 0 and the
// upper half 1. On the complete graph every fault-free node hears
// n − 1 ≥ ⌊(n+3f)/2⌋ peers each round, above the threshold that
// Theorem 10 shows is necessary, so the split does not survive.
func ExampleSplitBrain() {
	const n = 7
	res, err := anondyn.Scenario{
		N: n, F: 1, Eps: 0.01,
		Algorithm: anondyn.AlgoDBAC,
		Inputs:    anondyn.SpreadInputs(n),
		Adversary: anondyn.Complete(),
		Byzantine: map[int]anondyn.Strategy{
			n - 1: anondyn.SplitBrain(func(receiver int) bool { return receiver < n/2 }, 0, 1),
		},
	}.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decided:", res.Decided)
	fmt.Println("ε-agreement:", res.EpsAgreement(0.01))
	fmt.Println("validity:", res.Valid())
	// Output:
	// decided: true
	// ε-agreement: true
	// validity: true
}

// ExampleReplay re-runs a recorded execution. The original run's
// adversary is adaptive: each round it cuts the links out of a node
// holding the current minimum. Its event log is written as JSON Lines,
// read back and replayed as the adversary of a second run with the same
// inputs, which reproduces the original Result exactly. Replay does the
// same from the in-memory recorder.
func ExampleReplay() {
	const n = 7
	rec := anondyn.NewRecorder()
	s := anondyn.Scenario{
		N: n, F: 1, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.RandomInputs(n, 5),
		Adversary: anondyn.ChaseMin(),
		Crashes:   map[int]anondyn.Crash{3: anondyn.CrashAt(2)},
		Recorder:  rec,
	}
	orig, err := s.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	var log bytes.Buffer
	if err := anondyn.WriteTrace(&log, rec); err != nil {
		fmt.Println("error:", err)
		return
	}
	events, err := anondyn.ReadTrace(&log)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fromLog, err := anondyn.ReplayEvents(n, events)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fromRecorder, err := anondyn.Replay(n, rec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s.Recorder = nil
	for _, adv := range []anondyn.Adversary{fromLog, fromRecorder} {
		s.Adversary = adv
		res, err := s.Run()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("same result:", reflect.DeepEqual(orig, res))
	}
	fmt.Println("rounds:", orig.Rounds, "decided:", orig.Decided)
	// Output:
	// same result: true
	// same result: true
	// rounds: 10 decided: true
}
