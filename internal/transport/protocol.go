// Package transport runs the consensus algorithms over real network
// connections: one process per node, a hub process standing in for the
// broadcast medium. The hub enforces the synchronous-round semantics of
// §II-A — it collects every node's broadcast, lets a message adversary
// choose E(t) (in a deployment this is the radio environment; in a lab
// it is configurable), tags deliveries with receiver-local ports, and
// barriers the round. Nodes never see identities, only ports: the
// anonymity of the model is preserved on the wire.
//
// The framing is deliberately tiny: every frame is one type byte
// followed by varint-encoded fields; message payloads reuse the wire
// package's O(log n)-bit encoding.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"anondyn/internal/core"
	"anondyn/internal/wire"
)

// Protocol version, sent in the hello/config handshake. v2 added the
// shard frames (0x08–0x0D) for coordinator↔worker sweep dispatch; v3
// added live worker telemetry (the 0x0E metrics frame and the task's
// metrics cadence field); v4 turned the coordinator into a resident
// control plane: join/leave frames for elastic worker membership,
// submit/sweep-status/sweep-rows frames for queueing sweeps against a
// running service, and a shared-secret token in every handshake; v5
// dropped the task frame's reorder-window field (workers size it).
const protocolVersion = 5

// Frame types.
const (
	frameHello      byte = 0x01 // node → hub: version
	frameConfig     byte = 0x02 // hub → node: version, n, selfPort
	frameRoundStart byte = 0x03 // hub → node: round
	frameBroadcast  byte = 0x04 // node → hub: message
	frameDeliver    byte = 0x05 // hub → node: round, count, (port, message)*
	frameStatus     byte = 0x06 // node → hub: phase, value, decided(+output)
	frameStop       byte = 0x07 // hub → node / coordinator → worker: end of session

	// Shard protocol (coordinator ↔ sweep worker), layered on the same
	// framing: one hello/ready handshake per connection, then task →
	// record-stream → done exchanges until the coordinator stops.
	frameShardHello  byte = 0x08 // coordinator → worker: version
	frameShardReady  byte = 0x09 // worker → coordinator: version, capacity
	frameShardTask   byte = 0x0a // coordinator → worker: shard, lo, hi, seeds, metricsEvery, spec
	frameShardRecord byte = 0x0b // worker → coordinator: run, decided, rounds, bytes, outbits, violation
	frameShardDone   byte = 0x0c // worker → coordinator: shard, count
	frameShardErr    byte = 0x0d // worker → coordinator: shard, message

	// v3: live telemetry, interleaved with the record stream at the
	// cadence the task requests (ShardTask.MetricsEveryRuns).
	frameShardMetrics byte = 0x0e // worker → coordinator: shard, runs, rounds, delivered, busy, workers

	// v4: resident control plane. Workers join (and leave) an already
	// running coordinator instead of being dialed from a fixed list, and
	// sweep clients submit specs against the same port. The first frame
	// of an inbound connection names its role: join for a worker,
	// submit for a sweep client, hello for a legacy coordinator dialing
	// a listening worker.
	frameShardJoin    byte = 0x0f // worker → control plane: version, capacity, token
	frameShardWelcome byte = 0x10 // control plane → worker: version
	frameShardLeave   byte = 0x11 // worker → control plane: graceful leave (between tasks)
	frameSubmit       byte = 0x12 // client → control plane: version, seeds, shards, token, name, spec
	frameSubmitOK     byte = 0x13 // control plane → client: sweep id, total runs
	frameSweepStatus  byte = 0x14 // control plane → client: id, state, done, total, requeues, workers
	frameSweepRows    byte = 0x15 // control plane → client: id, rows (JSON)
	frameSweepFail    byte = 0x16 // control plane → client: id, message

	// Read-only control-plane introspection (dyna status): one
	// request, one info frame, connection closed.
	frameStatusReq  byte = 0x17 // client → control plane: version, token
	frameStatusInfo byte = 0x18 // control plane → client: workers, count, then per sweep: id, state, done, total, requeues, name
)

// Errors surfaced by the protocol layer.
var (
	ErrBadFrame   = errors.New("transport: malformed frame")
	ErrBadType    = errors.New("transport: unexpected frame type")
	ErrVersion    = errors.New("transport: protocol version mismatch")
	ErrShutdown   = errors.New("transport: connection closed by peer")
	ErrAuth       = errors.New("transport: shard auth failed (token mismatch)")
	ErrWorkerLeft = errors.New("transport: worker left the control plane")
	errShortRead  = errors.New("transport: short read")
)

// conn wraps a stream with buffered varint-friendly framing. All methods
// are synchronous; the round structure of the protocol means there is
// never more than one outstanding frame per direction.
type conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

func newConn(rw io.ReadWriter) *conn {
	return &conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

func (c *conn) writeFrame(frameType byte, fields ...uint64) error {
	if err := c.w.WriteByte(frameType); err != nil {
		return fmt.Errorf("transport: write frame type: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	for _, f := range fields {
		n := binary.PutUvarint(buf[:], f)
		if _, err := c.w.Write(buf[:n]); err != nil {
			return fmt.Errorf("transport: write field: %w", err)
		}
	}
	return nil
}

func (c *conn) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := c.w.Write(buf[:n])
	return err
}

func (c *conn) writeBytes(b []byte) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(b)))
	if _, err := c.w.Write(buf[:n]); err != nil {
		return err
	}
	_, err := c.w.Write(b)
	return err
}

func (c *conn) flush() error { return c.w.Flush() }

func (c *conn) readType() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, ErrShutdown
		}
		return 0, err
	}
	return b, nil
}

func (c *conn) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c.r)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("%w: %w", ErrBadFrame, errShortRead)
		}
		return 0, err
	}
	return v, nil
}

func (c *conn) readBytes(maxLen int) ([]byte, error) {
	n, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("%w: payload of %d bytes exceeds limit %d", ErrBadFrame, n, maxLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.r, b); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return b, nil
}

// maxWireMessage bounds a single consensus message on the wire; even
// full-information histories in the tests stay far below this.
const maxWireMessage = 1 << 16

// writeMessage frames a consensus message.
func (c *conn) writeMessage(m core.Message) error {
	return c.writeBytes(wire.Encode(nil, m))
}

// readMessage parses a framed consensus message.
func (c *conn) readMessage() (core.Message, error) {
	b, err := c.readBytes(maxWireMessage)
	if err != nil {
		return core.Message{}, err
	}
	m, n, err := wire.Decode(b)
	if err != nil {
		return core.Message{}, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if n != len(b) {
		return core.Message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b)-n)
	}
	return m, nil
}

// Status is a node's end-of-round report to the hub.
type Status struct {
	Phase   int
	Value   float64
	Decided bool
	Output  float64
}

func (c *conn) writeStatus(s Status) error {
	decided := uint64(0)
	if s.Decided {
		decided = 1
	}
	if err := c.writeFrame(frameStatus, uint64(s.Phase), quant(s.Value), decided, quant(s.Output)); err != nil {
		return err
	}
	return nil
}

func (c *conn) readStatusBody() (Status, error) {
	phase, err := c.readUvarint()
	if err != nil {
		return Status{}, err
	}
	val, err := c.readUvarint()
	if err != nil {
		return Status{}, err
	}
	decided, err := c.readUvarint()
	if err != nil {
		return Status{}, err
	}
	out, err := c.readUvarint()
	if err != nil {
		return Status{}, err
	}
	return Status{
		Phase:   int(phase),
		Value:   dequant(val),
		Decided: decided == 1,
		Output:  dequant(out),
	}, nil
}

// Value quantization for status frames mirrors the wire package's
// fixed-point scheme (30 fractional bits over [0,1]).
func quant(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 1 << 30
	}
	// float64(…) rounds the product, so no target fuses a multiply-add.
	return uint64(float64(v*(1<<30)) + 0.5)
}

func dequant(q uint64) float64 {
	if q > 1<<30 {
		q = 1 << 30
	}
	return float64(q) / (1 << 30)
}
