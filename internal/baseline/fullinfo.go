package baseline

import (
	"fmt"

	"anondyn/internal/core"
)

// FullInfo is the §VII unlimited-bandwidth algorithm: every broadcast
// piggybacks the node's complete state history (its value in every phase
// so far), so a receiver in phase p can always extract a sender's
// phase-p value once the sender has ever been in phase p — simulating
// the reliable-channel algorithm of Dolev et al. [13] on top of the
// message adversary, with convergence rate 1/2 but messages that grow
// linearly with the phase count (the bandwidth cost E8 measures).
type FullInfo struct {
	n    int
	pEnd int

	v     float64
	phase int
	hist  []core.HistEntry // hist[q] = own state in phase q

	heard  []bool
	nheard int
	min    float64
	max    float64

	selfPort int

	decided  bool
	decision float64
}

var _ core.Process = (*FullInfo)(nil)

// NewFullInfo builds a full-information node.
func NewFullInfo(n, selfPort int, input, eps float64) (*FullInfo, error) {
	if selfPort < 0 || selfPort >= n {
		return nil, fmt.Errorf("baseline: self port %d out of range [0,%d)", selfPort, n)
	}
	if err := core.ValidateInput(input); err != nil {
		return nil, err
	}
	if err := core.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	f := &FullInfo{n: n, pEnd: core.PEndDAC(eps), heard: make([]bool, n), selfPort: selfPort}
	f.Reinit(input)
	return f, nil
}

// Reinit implements core.Process. The history keeps its storage:
// Broadcast copies it, so no message aliases it.
func (f *FullInfo) Reinit(input float64) {
	f.v, f.phase = input, 0
	f.hist = append(f.hist[:0], core.HistEntry{Value: input, Phase: 0})
	f.decided, f.decision = false, 0
	f.openPhase()
	f.maybeDecide()
}

// Broadcast implements core.Process: current state plus full history.
func (f *FullInfo) Broadcast() core.Message {
	hist := make([]core.HistEntry, len(f.hist))
	copy(hist, f.hist)
	return core.Message{Value: f.v, Phase: f.phase, History: hist}
}

// DeliverAll implements core.Process: count each sender's phase-p value
// when its history (or current state) contains one.
func (f *FullInfo) DeliverAll(ds []core.Delivery) {
	for i := range ds {
		port := ds[i].Port
		if f.heard[port] {
			continue
		}
		val, ok := f.phaseValue(&ds[i].Msg)
		if !ok {
			continue // sender has never reached our phase yet
		}
		f.heard[port] = true
		f.nheard++
		if val < f.min {
			f.min = val
		}
		if val > f.max {
			f.max = val
		}
		if f.phase < f.pEnd && f.nheard >= core.CrashQuorum(f.n) {
			f.v = (f.min + f.max) / 2
			f.phase++
			f.hist = append(f.hist, core.HistEntry{Value: f.v, Phase: f.phase})
			f.openPhase()
		}
		f.maybeDecide()
	}
}

// openPhase starts a phase: only self heard, both extremes at v.
func (f *FullInfo) openPhase() {
	clear(f.heard)
	f.heard[f.selfPort] = true
	f.nheard = 1
	f.min, f.max = f.v, f.v
}

// phaseValue extracts the sender's phase-f.phase state from a message.
func (f *FullInfo) phaseValue(m *core.Message) (float64, bool) {
	if m.Phase == f.phase {
		return m.Value, true
	}
	if m.Phase < f.phase {
		return 0, false
	}
	for _, h := range m.History {
		if h.Phase == f.phase {
			return h.Value, true
		}
	}
	return 0, false
}

// EndRound implements core.Process.
func (f *FullInfo) EndRound() {}

// Output implements core.Process.
func (f *FullInfo) Output() (float64, bool) { return f.decision, f.decided }

// Phase implements core.Process.
func (f *FullInfo) Phase() int { return f.phase }

// Value implements core.Process.
func (f *FullInfo) Value() float64 { return f.v }

func (f *FullInfo) maybeDecide() {
	if !f.decided && f.phase >= f.pEnd {
		f.decided = true
		f.decision = f.v
	}
}
