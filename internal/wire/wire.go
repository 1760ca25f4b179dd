// Package wire gives the model's messages a concrete on-the-wire shape
// so the limited-bandwidth assumption (§II-A: one message of O(log n)
// bits per link per round) can be accounted for, and so the §VII
// bandwidth/convergence trade-off (experiment E8) can be measured in
// bytes rather than hand-waved.
//
// Encoding: a varint phase followed by the state value. Values are
// quantized to a fixed number of fractional bits (default 30, giving
// ~1e-9 resolution on [0,1] — far below every ε the experiments use);
// the quantized integer is varint-encoded. History entries, when
// present, repeat the same (phase, value) shape. Everything is
// deterministic and byte-order independent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"anondyn/internal/core"
)

// FractionBits is the fixed-point resolution for state values in [0,1].
const FractionBits = 30

// scale is the fixed-point multiplier.
const scale = 1 << FractionBits

// ErrTruncated reports a message that ends mid-field.
var ErrTruncated = errors.New("wire: truncated message")

// quantize maps v ∈ [0,1] to its fixed-point code, clamping stray values
// (Byzantine senders may claim anything; the wire cannot carry more than
// the code space).
func quantize(v float64) uint64 {
	if math.IsNaN(v) || v <= 0 {
		return 0
	}
	if v >= 1 {
		return scale
	}
	return uint64(math.Round(v * scale))
}

// dequantize inverts quantize.
func dequantize(q uint64) float64 {
	if q > scale {
		q = scale
	}
	return float64(q) / scale
}

// Encode serializes a message, appending to dst and returning the
// extended slice.
func Encode(dst []byte, m core.Message) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(m.Phase))
	dst = append(dst, buf[:n]...)
	n = binary.PutUvarint(buf[:], quantize(m.Value))
	dst = append(dst, buf[:n]...)
	n = binary.PutUvarint(buf[:], uint64(len(m.History)))
	dst = append(dst, buf[:n]...)
	for _, h := range m.History {
		n = binary.PutUvarint(buf[:], uint64(h.Phase))
		dst = append(dst, buf[:n]...)
		n = binary.PutUvarint(buf[:], quantize(h.Value))
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// Decode parses one message from the front of src, returning the message
// and the number of bytes consumed.
func Decode(src []byte) (core.Message, int, error) {
	var m core.Message
	phase, off, err := uvarint(src, 0)
	if err != nil {
		return m, 0, fmt.Errorf("phase: %w", err)
	}
	val, off, err := uvarint(src, off)
	if err != nil {
		return m, 0, fmt.Errorf("value: %w", err)
	}
	count, off, err := uvarint(src, off)
	if err != nil {
		return m, 0, fmt.Errorf("history length: %w", err)
	}
	if count > uint64(len(src)) {
		// Each entry needs ≥ 2 bytes; a count beyond the remaining bytes
		// is corrupt and must not drive a giant allocation.
		return m, 0, fmt.Errorf("history length %d: %w", count, ErrTruncated)
	}
	m.Phase = int(phase)
	m.Value = dequantize(val)
	if count > 0 {
		m.History = make([]core.HistEntry, count)
		for i := range m.History {
			var hp, hv uint64
			hp, off, err = uvarint(src, off)
			if err != nil {
				return core.Message{}, 0, fmt.Errorf("history[%d] phase: %w", i, err)
			}
			hv, off, err = uvarint(src, off)
			if err != nil {
				return core.Message{}, 0, fmt.Errorf("history[%d] value: %w", i, err)
			}
			m.History[i] = core.HistEntry{Phase: int(hp), Value: dequantize(hv)}
		}
	}
	return m, off, nil
}

func uvarint(src []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, off + n, nil
}

// Size returns the encoded length of a message in bytes without
// allocating.
func Size(m core.Message) int {
	s := uvarintLen(uint64(m.Phase)) + uvarintLen(quantize(m.Value)) + uvarintLen(uint64(len(m.History)))
	for _, h := range m.History {
		s += uvarintLen(uint64(h.Phase)) + uvarintLen(quantize(h.Value))
	}
	return s
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
