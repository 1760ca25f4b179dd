package spec

import (
	"bytes"
	"reflect"
	"testing"
)

// addCommittedSpecs seeds a fuzz corpus with every committed spec.
func addCommittedSpecs(f *testing.F, args ...any) {
	for _, data := range committedSpecs(f) {
		f.Add(append([]any{data}, args...)...)
	}
}

// FuzzParseEncode pins the parse → encode fixed point: every document
// Parse accepts encodes to bytes Parse accepts, and encoding the
// re-parsed sweep reproduces those bytes exactly. Encodings are
// compared rather than structs, because an empty list ("fs: []")
// decodes to an empty slice but is not written back, so it re-parses
// as nil. The corpus is seeded with every committed spec.
func FuzzParseEncode(f *testing.F) {
	addCommittedSpecs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := Parse(data)
		if err != nil {
			return
		}
		encoded := sw.Encode()
		again, err := Parse(encoded)
		if err != nil {
			t.Fatalf("the encoding of an accepted document does not parse: %v\n--- input\n%s\n--- encoding\n%s", err, data, encoded)
		}
		if reencoded := again.Encode(); !bytes.Equal(reencoded, encoded) {
			t.Fatalf("encode(parse(encode(s))) != encode(s):\n--- first\n%s\n--- second\n%s", encoded, reencoded)
		}
	})
}

// maxFuzzFleet caps the fleets FuzzCompileStorm materializes, so one
// exec stays in milliseconds.
const maxFuzzFleet = 2048

// FuzzCompileStorm: every accepted spec with a stress section compiles
// to a grid, and its storm is a pure function of (spec, run seed) —
// two compiles give equal crash schedules, survivor counts and
// timelines.
func FuzzCompileStorm(f *testing.F) {
	addCommittedSpecs(f, int64(1))
	// The committed storms are larger than the cap; a small fleet with
	// every event kind gives the mutator something to start from.
	f.Add([]byte(stressYAML), int64(1))
	f.Add([]byte(`name: every-kind
stress:
  fleet:
    total_nodes: 64
    groups: 4
  rounds: 40
  events:
    - kind: crash-storm
      round: 2
      duration: 3
      rate: 0.05
    - kind: byzantine
      count: 2
      strategy: extremist
      args: [1]
    - kind: group-outage
      round: 4
      count: 1
    - kind: cascade
      round: 6
      count: 2
      waves: 3
      factor: 2.0
      spread: 2
`), int64(2))
	// Large integers, which the mutator rarely writes by itself: event
	// ends far past the budget, and huge wave sizes and growth inside it.
	for _, event := range []string{
		"kind: cascade\nround: 1\ncount: 1\nwaves: 3000000\nspread: 1",
		"kind: crash-storm\nround: 1\nduration: 3000000\nrate: 0.01",
		"kind: starve\nround: 9223372036854775807\nduration: 9223372036854775807\nrate: 1",
		"kind: cascade\nround: 1\ncount: 2147483647\nwaves: 5\nfactor: 1e300\nspread: 1",
		"kind: crash\nround: 5\ncount: 9223372036854775807",
	} {
		f.Add(stormSpec(event), int64(-1)<<63)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		sw, err := Parse(data)
		if err != nil || sw.Stress == nil || sw.Stress.Fleet.TotalNodes > maxFuzzFleet {
			return
		}
		if derr := sw.Stress.CheckDuration(); derr != nil {
			if _, err := sw.Grid(); err == nil || err.Error() != derr.Error() {
				t.Fatalf("Grid() = %v for a storm past its duration, want %v\n%s", err, derr, data)
			}
			return
		}
		if _, err := sw.Grid(); err != nil {
			t.Fatalf("accepted stress spec does not compile: %v\n%s", err, data)
		}
		a, b := sw.Stress.CompileStorm(seed), sw.Stress.CompileStorm(seed)
		if !reflect.DeepEqual(a.Crashes, b.Crashes) || a.Survivors != b.Survivors || !reflect.DeepEqual(a.Timeline, b.Timeline) {
			t.Fatalf("seed %d compiles two storms:\n%+v\n%+v\n%s", seed, a, b, data)
		}
	})
}
