package wire

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn/internal/core"
)

// Quantize rounds a value to exactly the precision the wire carries.
// Algorithms themselves work on float64; the tests use Quantize to
// confirm that wire round-trips lose nothing beyond the declared
// resolution.
func Quantize(v float64) float64 { return dequantize(quantize(v)) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []core.Message{
		{},
		{Value: 0.5, Phase: 0},
		{Value: 1, Phase: 12345},
		{Value: 0.123456789, Phase: 3},
		{Value: 0.5, Phase: 2, History: []core.HistEntry{
			{Value: 0.25, Phase: 1}, {Value: 0, Phase: 0},
		}},
	}
	for _, m := range msgs {
		buf := Encode(nil, m)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", m, err)
		}
		if n != len(buf) {
			t.Errorf("%v: consumed %d of %d bytes", m, n, len(buf))
		}
		if got.Phase != m.Phase {
			t.Errorf("%v: phase %d → %d", m, m.Phase, got.Phase)
		}
		if math.Abs(got.Value-m.Value) > 1.0/(1<<FractionBits) {
			t.Errorf("%v: value error %g beyond resolution", m, math.Abs(got.Value-m.Value))
		}
		if len(got.History) != len(m.History) {
			t.Fatalf("%v: history length %d → %d", m, len(m.History), len(got.History))
		}
		for i := range m.History {
			if got.History[i].Phase != m.History[i].Phase {
				t.Errorf("history[%d] phase mismatch", i)
			}
			if math.Abs(got.History[i].Value-m.History[i].Value) > 1.0/(1<<FractionBits) {
				t.Errorf("history[%d] value error beyond resolution", i)
			}
		}
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	msgs := []core.Message{
		{},
		{Value: 1, Phase: 1 << 20},
		{Value: 0.999, Phase: 7, History: []core.HistEntry{{Value: 0.1, Phase: 6}}},
	}
	for _, m := range msgs {
		if got, want := Size(m), len(Encode(nil, m)); got != want {
			t.Errorf("Size(%v) = %d, encoded = %d", m, got, want)
		}
	}
}

func TestPlainMessageStaysSmall(t *testing.T) {
	// The O(log n)-bit claim: a history-free message is a handful of
	// bytes regardless of network size.
	m := core.Message{Value: 0.7324, Phase: 40}
	if s := Size(m); s > 8 {
		t.Errorf("plain message is %d bytes, want ≤ 8", s)
	}
}

func TestQuantizeClamps(t *testing.T) {
	if Quantize(-0.5) != 0 {
		t.Error("negative value not clamped to 0")
	}
	if Quantize(1.5) != 1 {
		t.Error("value > 1 not clamped to 1")
	}
	if Quantize(math.NaN()) != 0 {
		t.Error("NaN not clamped to 0")
	}
	if Quantize(0.5) != 0.5 {
		t.Error("0.5 should be exactly representable")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := Encode(nil, core.Message{Value: 0.5, Phase: 300, History: []core.HistEntry{{Value: 0.25, Phase: 1}}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeCorruptHistoryCount(t *testing.T) {
	// phase 0, value 0, history count huge — must error, not allocate.
	buf := []byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, _, err := Decode(buf); err == nil {
		t.Error("absurd history count accepted")
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{1, 2, 3}
	buf := Encode(prefix, core.Message{Value: 0.5, Phase: 1})
	if len(buf) <= 3 || buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Error("Encode must append to dst")
	}
	if _, n, err := Decode(buf[3:]); err != nil || n != len(buf)-3 {
		t.Errorf("appended message decode failed: %v", err)
	}
}

// TestWireQuick: round trip over random messages preserves phase exactly
// and value within resolution; Size always agrees with Encode.
func TestWireQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	property := func(vRaw uint32, phase uint16, histRaw []uint16) bool {
		m := core.Message{
			Value: float64(vRaw) / float64(math.MaxUint32),
			Phase: int(phase),
		}
		for i, h := range histRaw {
			if i == 8 {
				break
			}
			m.History = append(m.History, core.HistEntry{
				Value: float64(h) / 65535,
				Phase: i,
			})
		}
		buf := Encode(nil, m)
		if len(buf) != Size(m) {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.Phase != m.Phase || len(got.History) != len(m.History) {
			return false
		}
		return math.Abs(got.Value-m.Value) <= 1.0/(1<<FractionBits)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
