package fault

import (
	"fmt"
	"math/rand"

	"anondyn/internal/core"
	"anondyn/internal/rng"
)

// View is the read-only execution state a Byzantine strategy may consult
// (Byzantine nodes know everything the adversary knows).
type View interface {
	N() int
	Snapshot(i int) core.Snapshot
}

// Strategy produces a Byzantine node's per-receiver messages for a round.
// Byzantine nodes may equivocate — send different messages to different
// receivers — because port numberings are local and receivers cannot
// compare notes about sender identities (§VI-C). They cannot, however,
// forge the port their message arrives on: the channel is authenticated.
type Strategy interface {
	// Name identifies the strategy in traces and tables.
	Name() string
	// MessagesInto fills the round's messages into storage the engine
	// owns, mirroring adversary.InPlace. msgs and out both have length
	// view.N(); the strategy must set every out[i] — nil means "silent
	// towards receiver i", a non-nil entry points into msgs (entries may
	// alias: several receivers can share one message). Entries for
	// receivers outside the adversary's edge set are dropped by the
	// engine regardless. Both slices are overwritten by the next round's
	// call, so nothing may be retained across rounds.
	MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message)
	// Messages is MessagesInto into freshly allocated storage: it returns
	// the message for each receiver in [0, n), a nil entry meaning "send
	// nothing to that receiver this round". The engine never calls it;
	// every strategy in this package implements it as "allocate the two
	// slices, call MessagesInto".
	Messages(round, self int, view View) []*core.Message
}

// farFuture is a claimed phase that dominates every real one, so DBAC's
// pj ≥ pi rule always counts the value.
const farFuture = int(^uint(0) >> 2)

// messages is every strategy's Messages: MessagesInto on fresh storage.
func messages(s Strategy, round, self int, view View) []*core.Message {
	msgs, out := make([]core.Message, view.N()), make([]*core.Message, view.N())
	s.MessagesInto(round, self, view, msgs, out)
	return out
}

// uniform sends one message to everyone: every receiver shares msgs[0].
func uniform(m core.Message, msgs []core.Message, out []*core.Message) {
	if len(out) == 0 {
		return
	}
	msgs[0] = m
	for i := range out {
		out[i] = &msgs[0]
	}
}

// Silent never sends anything — a Byzantine node indistinguishable from
// an early crash.
type Silent struct{}

// Name implements Strategy.
func (Silent) Name() string { return "silent" }

// Messages implements Strategy.
func (s Silent) Messages(round, self int, view View) []*core.Message {
	return messages(s, round, self, view)
}

// MessagesInto implements Strategy.
func (Silent) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	clear(out)
}

// Extremist always claims an extreme value at a far-future phase, the
// strongest uniform attack against trimmed averaging: the claimed phase
// is always ≥ the receiver's, so the value is always counted.
type Extremist struct {
	// Value is the claimed state value (typically 0 or 1).
	Value float64
}

// Name implements Strategy.
func (e Extremist) Name() string { return fmt.Sprintf("extremist(%g)", e.Value) }

// Messages implements Strategy.
func (e Extremist) Messages(round, self int, view View) []*core.Message {
	return messages(e, round, self, view)
}

// MessagesInto implements Strategy.
func (e Extremist) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	uniform(core.Message{Value: e.Value, Phase: farFuture}, msgs, out)
}

// Equivocator sends value Low to the lower half of receiver IDs and High
// to the upper half, both at a far-future phase — the generic two-faced
// attack.
type Equivocator struct {
	Low, High float64
}

// Name implements Strategy.
func (e Equivocator) Name() string { return fmt.Sprintf("equivocator(%g|%g)", e.Low, e.High) }

// Messages implements Strategy.
func (e Equivocator) Messages(round, self int, view View) []*core.Message {
	return messages(e, round, self, view)
}

// MessagesInto implements Strategy. Each half shares one message, stored
// in the slot of the half's first receiver.
func (e Equivocator) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	n := len(out)
	if n == 0 {
		return
	}
	half := n / 2
	if half > 0 {
		msgs[0] = core.Message{Value: e.Low, Phase: farFuture}
	}
	msgs[half] = core.Message{Value: e.High, Phase: farFuture}
	for i := range out {
		if i < half {
			out[i] = &msgs[0]
		} else {
			out[i] = &msgs[half]
		}
	}
}

// SplitBrain is the Theorem 10 equivocation: behave towards one receiver
// group as if the input were ValueA and towards everyone else as if it
// were ValueB. InA decides group membership per receiver.
type SplitBrain struct {
	InA    func(receiver int) bool
	ValueA float64
	ValueB float64
}

// Name implements Strategy.
func (s SplitBrain) Name() string { return fmt.Sprintf("splitBrain(%g|%g)", s.ValueA, s.ValueB) }

// Messages implements Strategy.
func (s SplitBrain) Messages(round, self int, view View) []*core.Message {
	return messages(s, round, self, view)
}

// MessagesInto implements Strategy.
func (s SplitBrain) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	for i := range out {
		v := s.ValueB
		if s.InA != nil && s.InA(i) {
			v = s.ValueA
		}
		msgs[i] = core.Message{Value: v, Phase: farFuture}
		out[i] = &msgs[i]
	}
}

// RandomNoise sends every receiver an independently random value in
// [0, 1] and a random phase within a window above the receiver's phase —
// plausible-looking garbage.
type RandomNoise struct {
	rng *rand.Rand
}

// NewRandomNoise builds the strategy with its own deterministic stream.
func NewRandomNoise(seed int64) *RandomNoise {
	return &RandomNoise{rng: rand.New(rng.New(seed))}
}

// Reseed rewinds the stream to the state of a fresh instance built with
// this seed (the Reseeder contract compiled scenarios use to recycle
// strategies across Monte-Carlo runs).
func (r *RandomNoise) Reseed(seed int64) {
	r.rng.Seed(seed)
}

// Name implements Strategy.
func (*RandomNoise) Name() string { return "randomNoise" }

// Messages implements Strategy.
func (r *RandomNoise) Messages(round, self int, view View) []*core.Message {
	return messages(r, round, self, view)
}

// MessagesInto implements Strategy. The RNG draw order — value, then phase
// offset, per receiver in ID order — is the stream contract: seeds render
// identical noise through either entry point.
func (r *RandomNoise) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	for i := range out {
		recvPhase := view.Snapshot(i).Phase
		msgs[i] = core.Message{
			Value: r.rng.Float64(),
			Phase: recvPhase + r.rng.Intn(3),
		}
		out[i] = &msgs[i]
	}
}

// Laggard replays stale protocol state: it sends its genuine-looking
// value but with a phase far behind every receiver, so correct algorithms
// must ignore it. Useful for checking that stale messages are filtered.
type Laggard struct {
	Value float64
}

// Name implements Strategy.
func (l Laggard) Name() string { return fmt.Sprintf("laggard(%g)", l.Value) }

// Messages implements Strategy.
func (l Laggard) Messages(round, self int, view View) []*core.Message {
	return messages(l, round, self, view)
}

// MessagesInto implements Strategy.
func (l Laggard) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	uniform(core.Message{Value: l.Value, Phase: 0}, msgs, out)
}

// Mimic copies the public state of a chosen fault-free node, making the
// Byzantine node look perfectly honest — the null attack baseline.
type Mimic struct {
	Target int
}

// Name implements Strategy.
func (m Mimic) Name() string { return fmt.Sprintf("mimic(%d)", m.Target) }

// Messages implements Strategy.
func (m Mimic) Messages(round, self int, view View) []*core.Message {
	return messages(m, round, self, view)
}

// MessagesInto implements Strategy.
func (m Mimic) MessagesInto(round, self int, view View, msgs []core.Message, out []*core.Message) {
	snap := view.Snapshot(m.Target)
	uniform(core.Message{Value: snap.Value, Phase: snap.Phase}, msgs, out)
}

var (
	_ Strategy = Silent{}
	_ Strategy = Extremist{}
	_ Strategy = Equivocator{}
	_ Strategy = SplitBrain{}
	_ Strategy = (*RandomNoise)(nil)
	_ Strategy = Laggard{}
	_ Strategy = Mimic{}
)
