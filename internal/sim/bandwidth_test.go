package sim

import (
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/baseline"
	"anondyn/internal/core"
)

func fullInfoProcs(t *testing.T, n int, eps float64) []core.Process {
	t.Helper()
	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		fi, err := baseline.NewFullInfo(n, i, spread(n)[i], eps)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = fi
	}
	return procs
}

func TestBandwidthCapDropsOversized(t *testing.T) {
	// FullInfo messages grow with the phase count; a tight cap must
	// eventually drop them all and stall the run.
	n := 7
	cfg := Config{
		N:               n,
		Procs:           fullInfoProcs(t, n, 1e-3),
		Adversary:       adversary.NewComplete(),
		MaxMessageBytes: 16, // fits ~2 phases of history
		MaxRounds:       60,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.Decided {
		t.Error("FullInfo decided under a 16-byte link cap")
	}
	if res.MessagesOversized == 0 {
		t.Error("no oversized drops recorded")
	}
}

func TestBandwidthCapTransparentForSmallMessages(t *testing.T) {
	// Plain DAC messages always fit: a cap must change nothing.
	n := 7
	mk := func(cap int) *Result {
		cfg := Config{
			N:               n,
			Procs:           dacProcs(t, n, 8, spread(n)),
			Adversary:       adversary.NewComplete(),
			MaxMessageBytes: cap,
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	uncapped, capped := mk(0), mk(10)
	if capped.MessagesOversized != 0 {
		t.Errorf("DAC messages dropped: %d", capped.MessagesOversized)
	}
	if uncapped.Rounds != capped.Rounds || !capped.Decided {
		t.Errorf("cap changed a fitting run: %d vs %d rounds", uncapped.Rounds, capped.Rounds)
	}
	for node, v := range uncapped.Outputs {
		if capped.Outputs[node] != v {
			t.Errorf("node %d output changed under a transparent cap", node)
		}
	}
}

func TestBandwidthCapEngineEquivalence(t *testing.T) {
	mk := func(Observer) Config {
		return Config{
			N:               7,
			Procs:           fullInfoProcs(t, 7, 1e-2),
			Adversary:       adversary.NewComplete(),
			MaxMessageBytes: 24,
			MaxRounds:       40,
		}
	}
	if res, _ := runThreeWays(t, mk); res.MessagesOversized == 0 {
		t.Error("equivalence test vacuous: no drops happened")
	}
}
