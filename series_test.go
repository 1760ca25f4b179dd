package anondyn

import (
	"testing"

	"anondyn/internal/core"
)

// deliverSpy counts the DeliverAll calls its process receives.
type deliverSpy struct {
	core.Process
	calls *int
}

func (s deliverSpy) DeliverAll(ds []core.Delivery) {
	*s.calls++
	s.Process.DeliverAll(ds)
}

// TestSeriesKeepsBatchDelivery: a run with only a Series attached makes
// one DeliverAll call per receiver per round. The series taps the round
// as a metrics sink; an Observer would switch the engine to one call per
// message.
func TestSeriesKeepsBatchDelivery(t *testing.T) {
	const n = 7
	s := Scenario{
		N: n, Eps: 1e-3, Algorithm: AlgoDAC,
		Inputs: SpreadInputs(n), Adversary: Complete(),
		Series: NewRangeSeries(),
	}
	box := &engineBox{}
	procs, _, err := box.procsFor(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for i, p := range procs {
		procs[i] = deliverSpy{p, &calls}
	}
	box.pop = core.PerNode(procs) // the spies see every call
	res, err := box.run(s)        // reinitializes the spied processes in place
	if err != nil {
		t.Fatal(err)
	}
	if calls != n*res.Rounds {
		t.Errorf("%d DeliverAll calls over %d rounds of %d receivers, want %d", calls, res.Rounds, n, n*res.Rounds)
	}
	if s.Series.Len() != res.Rounds || s.Series.Series()[0] == 0 {
		t.Errorf("series %v over %d rounds: want one nonzero-first range per round", s.Series.Series(), res.Rounds)
	}
}
