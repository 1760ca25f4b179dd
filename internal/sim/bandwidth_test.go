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

func TestLinkBandwidthHeterogeneous(t *testing.T) {
	// §VII: per-link budgets. All links wide except those into node 0,
	// which are too narrow for FullInfo histories: node 0 stops hearing
	// anything once histories outgrow its links, while the rest of the
	// network keeps converging.
	n := 7
	cfg := Config{
		N:         n,
		Procs:     fullInfoProcs(t, n, 1e-2),
		Adversary: adversary.NewComplete(),
		LinkBandwidth: func(from, to int) int {
			if to == 0 {
				return 10 // fits only a history-free message
			}
			return 0 // unlimited
		},
		MaxRounds: 50,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.MessagesOversized == 0 {
		t.Fatal("narrow links dropped nothing")
	}
	// Node 0 must be stuck at a low phase; the others decided.
	if _, ok := res.Outputs[0]; ok {
		t.Error("node 0 decided despite starved links")
	}
	decided := 0
	for node := 1; node < n; node++ {
		if _, ok := res.Outputs[node]; ok {
			decided++
		}
	}
	if decided != n-1 {
		t.Errorf("%d of %d wide-link nodes decided", decided, n-1)
	}
}

func TestLinkBandwidthOverridesUniformCap(t *testing.T) {
	// A generous per-link function must win over a tiny uniform cap.
	n := 5
	cfg := Config{
		N:               n,
		Procs:           dacProcs(t, n, 4, spread(n)),
		Adversary:       adversary.NewComplete(),
		MaxMessageBytes: 1, // would drop everything…
		LinkBandwidth:   func(from, to int) int { return 0 },
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if !res.Decided || res.MessagesOversized != 0 {
		t.Errorf("per-link override ignored: decided=%v drops=%d", res.Decided, res.MessagesOversized)
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
