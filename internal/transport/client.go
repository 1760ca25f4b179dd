package transport

import (
	"fmt"
	"math"
	"net"
	"time"

	"anondyn/internal/core"
)

// ClientConfig configures one node process.
type ClientConfig struct {
	// NewProcess builds the node's algorithm once the hub has announced
	// the network size and the node's self port. Required. This is
	// where the caller picks DAC/DBAC and supplies the input.
	NewProcess func(n, selfPort int) (core.Process, error)
	// IOTimeout bounds each read/write; 0 = none.
	IOTimeout time.Duration
}

// ClientResult is a node's view of the finished execution.
type ClientResult struct {
	N        int
	SelfPort int
	Rounds   int
	Output   float64
	Decided  bool
}

// RunClient connects to a hub, participates in the synchronous
// execution, and returns after the hub's stop frame. It drives exactly
// one core.Process; the process never learns anything but n, its self
// port, and port-tagged deliveries — anonymity end to end.
func RunClient(addr string, cfg ClientConfig) (*ClientResult, error) {
	if cfg.NewProcess == nil {
		return nil, fmt.Errorf("transport: client needs a NewProcess factory")
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	defer raw.Close()
	return runClient(raw, cfg)
}

// runClient is RunClient on an open connection to the hub.
func runClient(raw net.Conn, cfg ClientConfig) (*ClientResult, error) {
	deadline := func() {
		if cfg.IOTimeout > 0 {
			raw.SetDeadline(time.Now().Add(cfg.IOTimeout)) //nolint:errcheck
		}
	}
	c := newConn(raw)

	// Handshake.
	deadline()
	if err := c.writeFrame(frameHello, protocolVersion); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	ft, err := c.readType()
	if err != nil {
		return nil, err
	}
	if ft != frameConfig {
		return nil, fmt.Errorf("%w: got 0x%02x, want config", ErrBadType, ft)
	}
	ver, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if ver != protocolVersion {
		return nil, fmt.Errorf("%w: hub speaks v%d, client v%d", ErrVersion, ver, protocolVersion)
	}
	nU, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	selfPortU, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if nU == 0 || nU > math.MaxInt32 || selfPortU >= nU {
		return nil, fmt.Errorf("%w: self port %d of n=%d", ErrBadFrame, selfPortU, nU)
	}
	n, selfPort := int(nU), int(selfPortU)

	proc, err := cfg.NewProcess(n, selfPort)
	if err != nil {
		return nil, fmt.Errorf("transport: build process: %w", err)
	}
	ds := make([]core.Delivery, 0, n) // a round delivers at most n: never regrows

	res := &ClientResult{N: n, SelfPort: selfPort}
	for {
		deadline()
		ft, err := c.readType()
		if err != nil {
			return nil, err
		}
		switch ft {
		case frameRoundStart:
			if _, err := c.readUvarint(); err != nil { // round index (informational)
				return nil, err
			}
			if err := c.writeMessageFrame(proc.Broadcast()); err != nil {
				return nil, err
			}
			if err := c.flush(); err != nil {
				return nil, err
			}

		case frameDeliver:
			if _, err := c.readUvarint(); err != nil { // round index
				return nil, err
			}
			count, err := c.readUvarint()
			if err != nil {
				return nil, err
			}
			if count > uint64(n) {
				return nil, fmt.Errorf("%w: %d deliveries for n=%d", ErrBadFrame, count, n)
			}
			ds = ds[:0]
			for i := uint64(0); i < count; i++ {
				portU, err := c.readUvarint()
				if err != nil {
					return nil, err
				}
				if portU >= uint64(n) {
					return nil, fmt.Errorf("%w: port %d out of range", ErrBadFrame, portU)
				}
				m, err := c.readMessage()
				if err != nil {
					return nil, err
				}
				ds = append(ds, core.Delivery{Port: int(portU), Msg: m})
			}
			proc.DeliverAll(ds)
			proc.EndRound()
			res.Rounds++
			out, decided := proc.Output()
			st := Status{Phase: proc.Phase(), Value: proc.Value(), Decided: decided, Output: out}
			if err := c.writeStatus(st); err != nil {
				return nil, err
			}
			if err := c.flush(); err != nil {
				return nil, err
			}

		case frameStop:
			res.Output, res.Decided = proc.Output()
			return res, nil

		default:
			return nil, fmt.Errorf("%w: 0x%02x", ErrBadType, ft)
		}
	}
}

// writeMessageFrame sends a broadcast frame.
func (c *conn) writeMessageFrame(m core.Message) error {
	if err := c.writeFrame(frameBroadcast); err != nil {
		return err
	}
	return c.writeMessage(m)
}
