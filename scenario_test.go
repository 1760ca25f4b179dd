package anondyn_test

import (
	"errors"
	"testing"

	"anondyn"
)

func TestScenarioDACBasic(t *testing.T) {
	res, err := anondyn.Scenario{
		N: 7, F: 3, Eps: 1e-3,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(7),
		Adversary: anondyn.Complete(),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Valid() || !res.EpsAgreement(1e-3) {
		t.Errorf("decided=%v valid=%v range=%g", res.Decided, res.Valid(), res.OutputRange())
	}
	if res.Rounds != anondyn.PEndDAC(1e-3) {
		t.Errorf("rounds = %d, want %d", res.Rounds, anondyn.PEndDAC(1e-3))
	}
}

func TestScenarioValidation(t *testing.T) {
	base := func() anondyn.Scenario {
		return anondyn.Scenario{
			N: 7, F: 3, Eps: 1e-3,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.SpreadInputs(7),
			Adversary: anondyn.Complete(),
		}
	}
	cases := []struct {
		name   string
		mutate func(*anondyn.Scenario)
	}{
		{"zero n", func(s *anondyn.Scenario) { s.N = 0 }},
		{"inputs length", func(s *anondyn.Scenario) { s.Inputs = s.Inputs[:3] }},
		{"nil adversary", func(s *anondyn.Scenario) { s.Adversary = nil }},
		{"no algorithm", func(s *anondyn.Scenario) { s.Algorithm = 0 }},
		{"no eps or pEnd", func(s *anondyn.Scenario) { s.Eps = 0 }},
		{"resilience", func(s *anondyn.Scenario) { s.F = 4 }},
		{"bad input", func(s *anondyn.Scenario) { s.Inputs[0] = 2 }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if _, err := s.Run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// ErrScenario is matchable.
	s := base()
	s.Adversary = nil
	if _, err := s.Run(); !errors.Is(err, anondyn.ErrScenario) {
		t.Errorf("err = %v, want ErrScenario", err)
	}
}

func TestScenarioUncheckedAllowsOutOfBounds(t *testing.T) {
	s := anondyn.Scenario{
		N: 4, F: 2, Eps: 0.5, // n = 2f: invalid for DAC
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(4),
		Adversary: anondyn.Complete(),
		MaxRounds: 10,
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("out-of-bounds config accepted without Unchecked")
	}
	s.Unchecked = true
	if _, err := s.Run(); err != nil {
		t.Fatalf("Unchecked run rejected: %v", err)
	}
}

func TestScenarioDBACByzantine(t *testing.T) {
	byz := map[int]anondyn.Strategy{
		2: anondyn.Equivocator(0, 1),
		8: anondyn.Extremist(0),
	}
	res, err := anondyn.Scenario{
		N: 11, F: 2, Eps: 1e-2,
		Algorithm:    anondyn.AlgoDBAC,
		PEndOverride: 10,
		Inputs:       anondyn.SpreadInputs(11),
		Adversary:    anondyn.Complete(),
		Byzantine:    byz,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || !res.Valid() {
		t.Errorf("decided=%v valid=%v", res.Decided, res.Valid())
	}
	if res.EpsAgreement(1e-2) != (res.OutputRange() <= 1e-2) {
		t.Error("EpsAgreement inconsistent with OutputRange")
	}
}

func TestScenarioRandomPortsStillCorrect(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res, err := anondyn.Scenario{
			N: 7, F: 3, Eps: 1e-3,
			Algorithm:   anondyn.AlgoDAC,
			Inputs:      anondyn.RandomInputs(7, seed),
			Adversary:   anondyn.Rotating(3),
			RandomPorts: true,
			Seed:        seed,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided || !res.Valid() || !res.EpsAgreement(1e-3) {
			t.Errorf("seed %d: decided=%v valid=%v range=%g",
				seed, res.Decided, res.Valid(), res.OutputRange())
		}
	}
}

func TestScenarioShuffleDelivery(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res, err := anondyn.Scenario{
			N: 9, F: 4, Eps: 1e-3,
			Algorithm:       anondyn.AlgoDAC,
			Inputs:          anondyn.SpreadInputs(9),
			Adversary:       anondyn.Rotating(4),
			ShuffleDelivery: true,
			Seed:            seed,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided || !res.Valid() || !res.EpsAgreement(1e-3) {
			t.Errorf("seed %d: decided=%v valid=%v range=%g",
				seed, res.Decided, res.Valid(), res.OutputRange())
		}
	}
}

func TestScenarioRecorderAndTrace(t *testing.T) {
	rec := anondyn.NewRecorder()
	res, err := anondyn.Scenario{
		N: 5, F: 2, Eps: 0.1,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(5),
		Adversary: anondyn.Complete(),
		Recorder:  rec,
		KeepTrace: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("recorder empty")
	}
	if len(res.Trace) != res.Rounds {
		t.Errorf("trace %d rounds, result %d", len(res.Trace), res.Rounds)
	}
	if got := anondyn.MaxDynaDegree(res.Trace, res.FaultFree, 1); got != 4 {
		t.Errorf("complete trace degree = %d, want 4", got)
	}
}

func TestScenarioAllAlgorithmsRun(t *testing.T) {
	for _, algo := range []anondyn.Algo{
		anondyn.AlgoDAC, anondyn.AlgoMegaRound, anondyn.AlgoFullInfo,
		anondyn.AlgoReliableIterated, anondyn.AlgoBACReliable,
	} {
		res, err := anondyn.Scenario{
			N: 7, F: 2, Eps: 1e-2,
			Algorithm: algo,
			MegaT:     2,
			Inputs:    anondyn.SpreadInputs(7),
			Adversary: anondyn.Complete(),
			MaxRounds: 200,
		}.Run()
		if err != nil {
			t.Errorf("%v: %v", algo, err)
			continue
		}
		if !res.Decided {
			t.Errorf("%v: undecided on the complete graph", algo)
		}
	}
	for _, algo := range []anondyn.Algo{anondyn.AlgoDBAC, anondyn.AlgoDBACPiggyback} {
		res, err := anondyn.Scenario{
			N: 6, F: 1, Eps: 1e-2,
			Algorithm:       algo,
			PiggybackWindow: 2,
			PEndOverride:    8,
			Inputs:          anondyn.SpreadInputs(6),
			Adversary:       anondyn.Complete(),
			MaxRounds:       200,
		}.Run()
		if err != nil {
			t.Errorf("%v: %v", algo, err)
			continue
		}
		if !res.Decided {
			t.Errorf("%v: undecided", algo)
		}
	}
}

func TestAlgoStrings(t *testing.T) {
	algos := []anondyn.Algo{
		anondyn.AlgoDAC, anondyn.AlgoDBAC, anondyn.AlgoDBACPiggyback,
		anondyn.AlgoMegaRound, anondyn.AlgoFullInfo,
		anondyn.AlgoReliableIterated, anondyn.AlgoBACReliable,
	}
	seen := map[string]bool{}
	for _, a := range algos {
		s := a.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("Algo(%d).String() = %q", int(a), s)
		}
		seen[s] = true
	}
	if anondyn.Algo(99).String() != "unknown" {
		t.Error("unknown algo should say so")
	}
}

func TestInputHelpers(t *testing.T) {
	sp := anondyn.SpreadInputs(5)
	if sp[0] != 0 || sp[4] != 1 || sp[2] != 0.5 {
		t.Errorf("SpreadInputs = %v", sp)
	}
	if got := anondyn.SpreadInputs(1); got[0] != 0 {
		t.Errorf("SpreadInputs(1) = %v", got)
	}
	si := anondyn.SplitInputs(5, 2)
	if si[0] != 0 || si[1] != 0 || si[2] != 1 || si[4] != 1 {
		t.Errorf("SplitInputs = %v", si)
	}
	ri := anondyn.RandomInputs(10, 3)
	for _, v := range ri {
		if v < 0 || v > 1 {
			t.Errorf("RandomInputs value %g outside [0,1]", v)
		}
	}
	ri2 := anondyn.RandomInputs(10, 3)
	for i := range ri {
		if ri[i] != ri2[i] {
			t.Error("RandomInputs not deterministic per seed")
		}
	}
}

func TestThresholdReexports(t *testing.T) {
	if anondyn.CrashDegree(9) != 4 || anondyn.ByzDegree(11, 2) != 8 {
		t.Error("degree re-exports broken")
	}
	if anondyn.PEndDAC(0.25) != 2 {
		t.Error("PEndDAC re-export broken")
	}
	if anondyn.PEndDBAC(0.5, 6) < 1 {
		t.Error("PEndDBAC re-export broken")
	}
}
