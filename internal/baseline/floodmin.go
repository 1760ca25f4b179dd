package baseline

import (
	"fmt"

	"anondyn/internal/core"
)

// FloodMin is the classical binary EXACT consensus algorithm: every
// round, broadcast the minimum input value seen so far; after R rounds,
// output it. On a reliably-complete synchronous graph R = f+1 rounds
// suffice (everyone hears every surviving value). It exists here to make
// Corollary 1 executable: under the (1, n−2)-dynaDegree adversary that
// keeps dropping one incoming message per receiver — the Gafni-Losa
// "time is not a healer" regime — the minimum can be suppressed forever
// and exact agreement fails even with zero faults, while DAC solves
// APPROXIMATE consensus under the very same adversary (experiment E9).
type FloodMin struct {
	rounds int
	v      float64
	round  int

	decided  bool
	decision float64
}

var _ core.Process = (*FloodMin)(nil)

// NewFloodMin builds a node deciding after `rounds` flooding rounds with
// a binary input (0 or 1).
func NewFloodMin(rounds int, input float64) (*FloodMin, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("baseline: floodmin needs ≥ 1 round, got %d", rounds)
	}
	if err := ValidateFloodMinInput(input); err != nil {
		return nil, err
	}
	fm := &FloodMin{rounds: rounds}
	fm.Reinit(input)
	return fm, nil
}

// ValidateFloodMinInput rejects an input other than 0 or 1: the check
// NewFloodMin makes, for callers that Reinit a node.
func ValidateFloodMinInput(input float64) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("baseline: floodmin input must be binary, got %g", input)
	}
	return nil
}

// Reinit implements core.Process; the input must pass
// ValidateFloodMinInput.
func (fm *FloodMin) Reinit(input float64) {
	fm.v, fm.round = input, 0
	fm.decided, fm.decision = false, 0
}

// Broadcast implements core.Process.
func (fm *FloodMin) Broadcast() core.Message {
	return core.Message{Value: fm.v, Phase: fm.round}
}

// DeliverAll implements core.Process: adopt any smaller value.
func (fm *FloodMin) DeliverAll(ds []core.Delivery) {
	for i := range ds {
		if ds[i].Msg.Value < fm.v {
			fm.v = ds[i].Msg.Value
		}
	}
}

// EndRound implements core.Process.
func (fm *FloodMin) EndRound() {
	fm.round++
	if !fm.decided && fm.round >= fm.rounds {
		fm.decided = true
		fm.decision = fm.v
	}
}

// Output implements core.Process.
func (fm *FloodMin) Output() (float64, bool) { return fm.decision, fm.decided }

// Phase implements core.Process (the round count).
func (fm *FloodMin) Phase() int { return fm.round }

// Value implements core.Process.
func (fm *FloodMin) Value() float64 { return fm.v }
