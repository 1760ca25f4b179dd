package sim

import (
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/fault"
)

// The paper's fault model is hybrid: "up to f nodes may suffer crash or
// Byzantine faults" (§I) — both kinds may appear in one execution as
// long as their total stays within f. A crash is a strict special case
// of Byzantine behavior, so DBAC must tolerate any mix.

func TestDBACHybridCrashAndByzantine(t *testing.T) {
	n, f := 16, 3
	byz := map[int]fault.Strategy{
		4:  fault.Equivocator{Low: 0, High: 1},
		11: fault.Extremist{Value: 0},
	}
	crashes := fault.Schedule{7: fault.CrashAt(2)} // 2 Byzantine + 1 crash = f
	cfg := Config{
		N:         n,
		F:         f,
		Procs:     dbacProcs(t, n, f, 14, spread(n), byz),
		Byzantine: byz,
		Crashes:   crashes,
		Adversary: adversary.NewComplete(),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("DBAC undecided under a hybrid crash+Byzantine pattern within f")
	}
	if !res.Valid() {
		t.Errorf("validity violated: %v", res.Outputs)
	}
	if res.OutputRange() > 1e-3 {
		t.Errorf("range %g too wide after 14 phases", res.OutputRange())
	}
	// The crash-scheduled node is excluded from H.
	for _, ff := range res.FaultFree {
		if ff == 7 || ff == 4 || ff == 11 {
			t.Errorf("faulty node %d in the fault-free set", ff)
		}
	}
}

func TestDBACHybridAtRotatingThreshold(t *testing.T) {
	// The harder setting: only the threshold degree per round, faults
	// mixed. DBAC's termination proof needs ⌊(n+3f)/2⌋ fault-free-
	// reachable senders per window; the rotating adversary provides
	// links from ALL nodes over time, crashed ones contributing nothing
	// — the quorum still fills because ⌊(n+3f)/2⌋+1 counts self and the
	// rotation keeps cycling fresh fault-free senders.
	n, f := 16, 3
	byz := map[int]fault.Strategy{
		0: fault.NewRandomNoise(5),
		8: fault.Equivocator{Low: 0, High: 1},
	}
	crashes := fault.Schedule{15: fault.CrashSilent(0)}
	rot, err := adversary.NewRotating((n + 3*f) / 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		N:         n,
		F:         f,
		Procs:     dbacProcs(t, n, f, 14, spread(n), byz),
		Byzantine: byz,
		Crashes:   crashes,
		Adversary: rot,
		MaxRounds: 3000,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided {
		t.Fatal("DBAC undecided at the rotating threshold with hybrid faults")
	}
	if !res.Valid() || res.OutputRange() > 1e-3 {
		t.Errorf("valid=%v range=%g", res.Valid(), res.OutputRange())
	}
}

func TestEngineStepAPIs(t *testing.T) {
	n := 5
	cfg := Config{
		N:         n,
		Procs:     dacProcs(t, n, 6, spread(n)),
		Adversary: adversary.NewComplete(),
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Round() != 0 {
		t.Errorf("initial Round = %d", eng.Round())
	}
	eng.Step()
	if eng.Round() != 1 {
		t.Errorf("Round after one Step = %d", eng.Round())
	}
	res := eng.RunRounds(2)
	if eng.Round() != 3 || res.Rounds != 3 {
		t.Errorf("Round = %d, res.Rounds = %d, want 3", eng.Round(), res.Rounds)
	}
	if p := cfg.Procs[0].Phase(); p != 3 {
		t.Errorf("node 0 phase = %d, want 3 (one phase per complete round)", p)
	}
	// Run continues from where stepping left off.
	final := eng.Run()
	if final.Rounds != 6 || !final.Decided {
		t.Errorf("final: rounds=%d decided=%v", final.Rounds, final.Decided)
	}
}
