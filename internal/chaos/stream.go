package chaos

// The chaos stream — the dedicated RNG stream every storm draw comes
// from. Like the er2 sampler's stream, it is a versioned contract: the
// draw sequence below is v1 (pinned by TestStreamGolden), a change to
// it is a new version, and committed storm specs embed a seed, so a
// spec replayed at the same seed reproduces the same fleet, the same
// victims and the same timeline byte for byte — on any platform,
// forever. The generator is splitmix64 (the same finalizer the engines
// already use for delivery shuffles); intn maps a draw by modulo, which
// is part of the contract (the bias at storm-sized n is irrelevant,
// stability is not).
//
// Draw order contract (v1):
//
//   - fleet stream  = stream(mix(stress.seed, saltFleet)): one intn
//     draw per node, ascending, for the weighted template pick —
//     consumed only when the fleet declares more than one template.
//   - storm stream  = stream(mix2(stress.seed, run seed, saltStorm)):
//     events in spec order. Victim picks are a partial Fisher–Yates
//     over the eligible (not yet faulted) nodes in ascending-ID order
//     (one intn per victim); a crash-storm draws one float64 per
//     eligible node per window round (rounds ascending, nodes
//     ascending); group picks are a partial Fisher–Yates over group
//     IDs; each starve event consumes one raw draw for its per-round
//     edge-drop stream.
//   - input stream  = stream(mix2(stress.seed, run seed, saltInputs)):
//     one float64 per random-template node, ascending — other template
//     kinds consume nothing.
//   - starve rounds = stream(mix(event seed, round)): one float64 per
//     surviving edge in sender-major order.

// Stream salts: arbitrary odd constants that keep the per-purpose
// streams of one storm unrelated.
const (
	saltFleet  = 0x8f1e_37d5_29cb_a64d
	saltStorm  = 0x3b97_0e52_c481_7a1b
	saltInputs = 0xd2c6_54e9_1b3a_8f77
	saltStarve = 0x61a5_9d38_e70f_42c3
)

// stream is a splitmix64 sequence.
type stream struct{ z uint64 }

func newStream(seed uint64) *stream { return &stream{z: seed} }

// next advances the stream by one 64-bit draw.
func (s *stream) next() uint64 {
	s.z += 0x9e3779b97f4a7c15
	return finalize(s.z)
}

// finalize is the splitmix64 output permutation.
func finalize(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// intn draws a value in [0, n) by modulo (n > 0).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// float64 draws a value in [0, 1) with 53 significant bits.
func (s *stream) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// mix folds a seed and a salt into a stream seed.
func mix(seed int64, salt uint64) uint64 { return finalize(uint64(seed) ^ salt) }

// mix2 folds the stress seed, one run's seed and a salt into a stream
// seed, so every Monte-Carlo run of a storm gets its own unrelated
// event realization while staying a pure function of (spec, run seed).
func mix2(seed, runSeed int64, salt uint64) uint64 {
	return finalize(finalize(uint64(seed)^salt) + uint64(runSeed)*0x9e3779b97f4a7c15)
}
