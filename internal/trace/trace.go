// Package trace records executions of the simulation engine as a
// structured event log, serializes them as JSON Lines, and can replay a
// recorded adversary so that any execution — including ones driven by
// adaptive adversaries and RNG — can be re-run deterministically.
package trace

import (
	"fmt"

	"anondyn/internal/core"
)

// Kind enumerates event types.
type Kind string

// Event kinds, in the order they occur within a round.
const (
	KindRound     Kind = "round"     // adversary picked E(t)
	KindBroadcast Kind = "broadcast" // node emitted its round message
	KindDeliver   Kind = "deliver"   // message delivered to a receiver
	KindPhase     Kind = "phase"     // node advanced (or jumped) phases
	KindCrash     Kind = "crash"     // node crashed
	KindDecide    Kind = "decide"    // node produced its output
)

// Event is one entry of the execution log. Fields are a union across
// kinds; unused fields stay at their zero values and are omitted from
// the JSON encoding.
type Event struct {
	Kind  Kind `json:"kind"`
	Round int  `json:"round"`
	// Node is the acting node (sender for broadcast, receiver for
	// deliver, the advancing/crashing/deciding node otherwise).
	Node int `json:"node,omitempty"`
	// Edges lists E(t) for round events.
	Edges [][2]int `json:"edges,omitempty"`
	// Port is the receiver-local port for deliver events.
	Port int `json:"port,omitempty"`
	// Value/Phase carry message or state payloads.
	Value float64 `json:"value,omitempty"`
	Phase int     `json:"phase,omitempty"`
	// FromPhase is the pre-transition phase for phase events.
	FromPhase int `json:"fromPhase,omitempty"`
}

// Recorder accumulates every event of an execution; the zero value is
// ready to use.
type Recorder struct {
	events []Event
}

// NewRecorder returns a recorder that keeps every event.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event.
func (r *Recorder) Record(e Event) { r.events = append(r.events, e) }

// Events returns the recorded log (shared slice; callers must not
// mutate).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Describe renders a compact human-readable form of an event.
func Describe(e Event) string {
	switch e.Kind {
	case KindRound:
		return fmt.Sprintf("r%04d round  |E|=%d", e.Round, len(e.Edges))
	case KindBroadcast:
		return fmt.Sprintf("r%04d bcast  node=%d %s", e.Round, e.Node, core.Message{Value: e.Value, Phase: e.Phase})
	case KindDeliver:
		return fmt.Sprintf("r%04d deliv  node=%d port=%d %s", e.Round, e.Node, e.Port, core.Message{Value: e.Value, Phase: e.Phase})
	case KindPhase:
		return fmt.Sprintf("r%04d phase  node=%d %d→%d v=%.6g", e.Round, e.Node, e.FromPhase, e.Phase, e.Value)
	case KindCrash:
		return fmt.Sprintf("r%04d crash  node=%d", e.Round, e.Node)
	case KindDecide:
		return fmt.Sprintf("r%04d decide node=%d v=%.6g", e.Round, e.Node, e.Value)
	default:
		return fmt.Sprintf("r%04d %s node=%d", e.Round, e.Kind, e.Node)
	}
}
