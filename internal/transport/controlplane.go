package transport

import (
	"fmt"
	"net"
	"time"
)

// The control-plane half of the v4 shard protocol. A resident
// coordinator (dyna serve) listens on one port and
// demultiplexes inbound connections by their first frame:
//
//   - join: an elastic worker registering itself (capacity + token).
//     After the welcome, the control plane drives the connection in the
//     client role — the same task → record-stream → done exchanges a
//     dialed worker speaks, just with the TCP roles inverted.
//   - submit: a sweep client enqueueing a spec. The control plane acks
//     with a sweep id, pushes status frames as the sweep progresses,
//     and finishes with a rows (or fail) frame.
//   - hello: a legacy one-shot coordinator dialing a listening worker
//     (not accepted by the control plane — workers answer hello).

// SweepState names a queued sweep's lifecycle phase in status frames.
type SweepState int

// Sweep lifecycle phases.
const (
	SweepQueued SweepState = iota
	SweepRunning
	SweepDone
	SweepFailed
)

// String names the state for logs and status lines.
func (s SweepState) String() string {
	switch s {
	case SweepQueued:
		return "queued"
	case SweepRunning:
		return "running"
	case SweepDone:
		return "done"
	case SweepFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SweepStatus is one progress push from the control plane to a sweep
// client: Done counts committed runs (whole shards folded into the
// merge — requeued partial streams never count), Workers the live
// member census at frame time.
type SweepStatus struct {
	Sweep    int
	State    SweepState
	Done     int
	Total    int
	Requeues int
	Workers  int
}

// SubmitRequest is one sweep submission: the spec document plus the
// per-sweep overrides that used to be coordinator flags.
type SubmitRequest struct {
	// SeedsPerCell, when > 0, overrides the spec's seeds_per_cell.
	SeedsPerCell int
	// Shards is the requested shard count; 0 lets the control plane
	// size the plan from live member capacity.
	Shards int
	// Name labels the sweep in logs and status lines (usually the spec
	// file's base name).
	Name string
	// Spec is the sweep document, shipped verbatim.
	Spec []byte
}

// JoinControlPlane dials a resident control plane and registers as an
// elastic worker: join (version, capacity, token) → welcome. The
// returned ShardServer speaks the exact worker-side session a listening
// worker speaks — the control plane sends tasks, the worker streams
// records.
func JoinControlPlane(addr string, capacity int, token string, timeout time.Duration) (*ShardServer, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial control plane %s: %w", addr, err)
	}
	s := &ShardServer{raw: raw, c: newConn(raw), timeout: timeout}
	s.deadline()
	if err := s.c.writeFrame(frameShardJoin, protocolVersion, uint64(capacity)); err != nil {
		raw.Close()
		return nil, err
	}
	if err := s.c.writeBytes([]byte(token)); err != nil {
		raw.Close()
		return nil, err
	}
	if err := s.c.flush(); err != nil {
		raw.Close()
		return nil, err
	}
	ft, err := s.c.readType()
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("transport: join %s rejected: %w", addr, err)
	}
	switch ft {
	case frameShardWelcome:
	case frameShardErr:
		if _, err := s.c.readUvarint(); err != nil {
			raw.Close()
			return nil, err
		}
		msg, err := s.c.readBytes(maxShardErrText)
		if err != nil {
			raw.Close()
			return nil, err
		}
		raw.Close()
		return nil, fmt.Errorf("transport: control plane %s rejected join: %s", addr, msg)
	default:
		raw.Close()
		return nil, fmt.Errorf("%w: got 0x%02x, want welcome", ErrBadType, ft)
	}
	ver, err := s.c.readUvarint()
	if err != nil {
		raw.Close()
		return nil, err
	}
	if ver != protocolVersion {
		raw.Close()
		return nil, fmt.Errorf("%w: control plane speaks v%d, worker v%d", ErrVersion, ver, protocolVersion)
	}
	return s, nil
}

// Accepted is the control plane's classification of one inbound
// connection: exactly one of Worker, Submit and Status is non-nil.
type Accepted struct {
	// Worker is set for a join: the control plane's client-role handle
	// on the newly registered worker, with Capacity filled from the
	// join frame.
	Worker *ShardClient
	// Submit is set for a sweep submission; the request is already
	// parsed and authenticated.
	Submit *SubmitSession
	// Status is set for a read-only status query (dyna status);
	// already authenticated. The handler answers once and closes.
	Status *StatusSession
}

// AcceptControlPlane performs the control-plane side of one inbound
// connection: read the role-naming first frame, authenticate it
// (constant-time token compare), and return the typed session. A
// rejected handshake (bad version, bad token, malformed frame) returns
// an error after best-effort sending the reason; the caller closes the
// connection and no membership or queue slot is consumed.
func AcceptControlPlane(raw net.Conn, token string, timeout time.Duration) (*Accepted, error) {
	c := newConn(raw)
	if timeout > 0 {
		raw.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
	ft, err := c.readType()
	if err != nil {
		return nil, err
	}
	reject := func(cause error, msg string) (*Accepted, error) {
		// Best-effort diagnostic (never echoing the presented token),
		// then the caller closes the connection.
		if err := c.writeFrame(frameShardErr, 0); err == nil {
			if err := c.writeBytes([]byte(msg)); err == nil {
				c.flush() //nolint:errcheck
			}
		}
		return nil, cause
	}
	switch ft {
	case frameShardJoin:
		ver, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		capU, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		got, err := c.readBytes(maxTokenBytes)
		if err != nil {
			return nil, err
		}
		if ver != protocolVersion {
			return reject(fmt.Errorf("%w: worker speaks v%d, control plane v%d", ErrVersion, ver, protocolVersion),
				fmt.Sprintf("version mismatch: worker v%d, control plane v%d", ver, protocolVersion))
		}
		if err := checkToken(token, got); err != nil {
			return reject(err, "bad token")
		}
		if err := c.writeFrame(frameShardWelcome, protocolVersion); err != nil {
			return nil, err
		}
		if err := c.flush(); err != nil {
			return nil, err
		}
		return &Accepted{Worker: &ShardClient{raw: raw, c: c, timeout: timeout, Capacity: int(capU)}}, nil
	case frameSubmit:
		ver, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		seeds, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		shards, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		got, err := c.readBytes(maxTokenBytes)
		if err != nil {
			return nil, err
		}
		name, err := c.readBytes(maxSweepName)
		if err != nil {
			return nil, err
		}
		specData, err := c.readBytes(maxSpecBytes)
		if err != nil {
			return nil, err
		}
		if ver != protocolVersion {
			return reject(fmt.Errorf("%w: client speaks v%d, control plane v%d", ErrVersion, ver, protocolVersion),
				fmt.Sprintf("version mismatch: client v%d, control plane v%d", ver, protocolVersion))
		}
		if err := checkToken(token, got); err != nil {
			return reject(err, "bad token")
		}
		return &Accepted{Submit: &SubmitSession{
			raw: raw, c: c, timeout: timeout,
			Req: SubmitRequest{
				SeedsPerCell: int(seeds),
				Shards:       int(shards),
				Name:         string(name),
				Spec:         specData,
			},
		}}, nil
	case frameStatusReq:
		ver, err := c.readUvarint()
		if err != nil {
			return nil, err
		}
		got, err := c.readBytes(maxTokenBytes)
		if err != nil {
			return nil, err
		}
		if ver != protocolVersion {
			return reject(fmt.Errorf("%w: client speaks v%d, control plane v%d", ErrVersion, ver, protocolVersion),
				fmt.Sprintf("version mismatch: client v%d, control plane v%d", ver, protocolVersion))
		}
		if err := checkToken(token, got); err != nil {
			return reject(err, "bad token")
		}
		return &Accepted{Status: &StatusSession{raw: raw, c: c, timeout: timeout}}, nil
	default:
		return reject(fmt.Errorf("%w: got 0x%02x, want join, submit or status", ErrBadType, ft),
			"expected join, submit or status")
	}
}

// SweepStatusInfo is one sweep's row of a control-plane status
// snapshot.
type SweepStatusInfo struct {
	ID       int
	Name     string
	State    SweepState
	Done     int
	Total    int
	Requeues int
}

// PlaneStatus is a control plane's point-in-time self-description: the
// live member census and every non-archived sweep in submission order.
type PlaneStatus struct {
	Workers int
	Sweeps  []SweepStatusInfo
}

// StatusSession is the control plane's end of one status-query
// connection: answer once with Send, then close.
type StatusSession struct {
	raw     net.Conn
	c       *conn
	timeout time.Duration
}

// Send answers the query with one info frame.
func (s *StatusSession) Send(st PlaneStatus) error {
	if s.timeout > 0 {
		s.raw.SetDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
	}
	if err := s.c.writeFrame(frameStatusInfo, uint64(st.Workers), uint64(len(st.Sweeps))); err != nil {
		return err
	}
	for _, sw := range st.Sweeps {
		for _, f := range []uint64{uint64(sw.ID), uint64(sw.State), uint64(sw.Done), uint64(sw.Total), uint64(sw.Requeues)} {
			if err := s.c.writeUvarint(f); err != nil {
				return err
			}
		}
		name := sw.Name
		if len(name) > maxSweepName {
			name = name[:maxSweepName]
		}
		if err := s.c.writeBytes([]byte(name)); err != nil {
			return err
		}
	}
	return s.c.flush()
}

// Close releases the connection.
func (s *StatusSession) Close() { s.raw.Close() }

// QueryPlaneStatus dials a control plane and fetches one status
// snapshot — the read-only introspection behind dyna status.
func QueryPlaneStatus(addr, token string, timeout time.Duration) (*PlaneStatus, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial control plane %s: %w", addr, err)
	}
	defer raw.Close()
	c := newConn(raw)
	if timeout > 0 {
		raw.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
	if err := c.writeFrame(frameStatusReq, protocolVersion); err != nil {
		return nil, err
	}
	if err := c.writeBytes([]byte(token)); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	ft, err := c.readType()
	if err != nil {
		return nil, err
	}
	switch ft {
	case frameStatusInfo:
	case frameShardErr:
		if _, err := c.readUvarint(); err != nil {
			return nil, err
		}
		msg, err := c.readBytes(maxShardErrText)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: control plane %s rejected status query: %s", addr, msg)
	default:
		return nil, fmt.Errorf("%w: got 0x%02x, want status info", ErrBadType, ft)
	}
	workers, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	count, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if count > maxStatusSweeps {
		return nil, fmt.Errorf("%w: status frame lists %d sweeps (limit %d)", ErrBadFrame, count, maxStatusSweeps)
	}
	st := &PlaneStatus{Workers: int(workers)}
	for i := uint64(0); i < count; i++ {
		var f [5]uint64
		for j := range f {
			v, err := c.readUvarint()
			if err != nil {
				return nil, err
			}
			f[j] = v
		}
		name, err := c.readBytes(maxSweepName)
		if err != nil {
			return nil, err
		}
		st.Sweeps = append(st.Sweeps, SweepStatusInfo{
			ID: int(f[0]), State: SweepState(f[1]),
			Done: int(f[2]), Total: int(f[3]), Requeues: int(f[4]),
			Name: string(name),
		})
	}
	return st, nil
}

// maxStatusSweeps bounds a status frame's sweep list (sanity cap far
// above any real queue).
const maxStatusSweeps = 1 << 16

// SubmitSession is the control plane's end of one sweep-client
// connection. The request is parsed; the control plane answers with
// Ack, pushes Status frames as the sweep progresses, and finishes with
// Rows or Fail. All writes happen from one goroutine (the session's
// handler).
type SubmitSession struct {
	raw     net.Conn
	c       *conn
	timeout time.Duration

	// Req is the authenticated submission.
	Req SubmitRequest
}

func (s *SubmitSession) deadline() {
	if s.timeout > 0 {
		s.raw.SetDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
	}
}

// Ack confirms the submission with the assigned sweep id and the total
// run count of the planned sweep.
func (s *SubmitSession) Ack(id, total int) error {
	s.deadline()
	if err := s.c.writeFrame(frameSubmitOK, uint64(id), uint64(total)); err != nil {
		return err
	}
	return s.c.flush()
}

// Status pushes one progress frame.
func (s *SubmitSession) Status(st SweepStatus) error {
	s.deadline()
	if err := s.c.writeFrame(frameSweepStatus, uint64(st.Sweep), uint64(st.State),
		uint64(st.Done), uint64(st.Total), uint64(st.Requeues), uint64(st.Workers)); err != nil {
		return err
	}
	return s.c.flush()
}

// Rows finishes the session with the sweep's aggregate rows, shipped as
// the JSON the client folds into its report envelope (byte-identical to
// a local Grid.Run's rows).
func (s *SubmitSession) Rows(id int, rowsJSON []byte) error {
	if len(rowsJSON) > maxRowsBytes {
		return fmt.Errorf("transport: rows of %d bytes exceed limit %d", len(rowsJSON), maxRowsBytes)
	}
	s.deadline()
	if err := s.c.writeFrame(frameSweepRows, uint64(id)); err != nil {
		return err
	}
	if err := s.c.writeBytes(rowsJSON); err != nil {
		return err
	}
	return s.c.flush()
}

// Fail finishes the session with the sweep's error.
func (s *SubmitSession) Fail(id int, msg string) error {
	if len(msg) > maxShardErrText {
		msg = msg[:maxShardErrText]
	}
	s.deadline()
	if err := s.c.writeFrame(frameSweepFail, uint64(id)); err != nil {
		return err
	}
	if err := s.c.writeBytes([]byte(msg)); err != nil {
		return err
	}
	return s.c.flush()
}

// Close releases the connection.
func (s *SubmitSession) Close() { s.raw.Close() }

// SweepError is the control plane's report that a submitted sweep
// failed (bad spec, deterministic worker rejection, abort).
type SweepError struct {
	Sweep int
	Msg   string
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("transport: sweep %d failed on control plane: %s", e.Sweep, e.Msg)
}

// SubmitSweep dials a control plane, submits one sweep, and blocks
// until it completes, returning the aggregate rows as JSON. onStatus,
// when non-nil, receives every status push. timeout bounds each frame
// exchange — the control plane pushes status at least once a second
// while the sweep runs, so a stalled control plane surfaces as a read
// timeout rather than a hang.
func SubmitSweep(addr, token string, req SubmitRequest, timeout time.Duration, onStatus func(SweepStatus)) ([]byte, error) {
	if len(req.Spec) > maxSpecBytes {
		return nil, fmt.Errorf("transport: spec of %d bytes exceeds limit %d", len(req.Spec), maxSpecBytes)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial control plane %s: %w", addr, err)
	}
	defer raw.Close()
	c := newConn(raw)
	deadline := func() {
		if timeout > 0 {
			raw.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
		}
	}
	deadline()
	if err := c.writeFrame(frameSubmit, protocolVersion,
		uint64(req.SeedsPerCell), uint64(req.Shards)); err != nil {
		return nil, err
	}
	if err := c.writeBytes([]byte(token)); err != nil {
		return nil, err
	}
	name := req.Name
	if len(name) > maxSweepName {
		name = name[:maxSweepName]
	}
	if err := c.writeBytes([]byte(name)); err != nil {
		return nil, err
	}
	if err := c.writeBytes(req.Spec); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	id := -1
	for {
		deadline() // refreshed per frame; status pushes keep the link live
		ft, err := c.readType()
		if err != nil {
			return nil, err
		}
		switch ft {
		case frameSubmitOK:
			idU, err := c.readUvarint()
			if err != nil {
				return nil, err
			}
			if _, err := c.readUvarint(); err != nil { // total runs
				return nil, err
			}
			id = int(idU)
		case frameSweepStatus:
			var f [6]uint64
			for i := range f {
				v, err := c.readUvarint()
				if err != nil {
					return nil, err
				}
				f[i] = v
			}
			if onStatus != nil {
				onStatus(SweepStatus{
					Sweep: int(f[0]), State: SweepState(f[1]),
					Done: int(f[2]), Total: int(f[3]),
					Requeues: int(f[4]), Workers: int(f[5]),
				})
			}
		case frameSweepRows:
			idU, err := c.readUvarint()
			if err != nil {
				return nil, err
			}
			if int(idU) != id {
				return nil, fmt.Errorf("%w: rows for sweep %d, want %d", ErrBadFrame, idU, id)
			}
			return c.readBytes(maxRowsBytes)
		case frameSweepFail:
			idU, err := c.readUvarint()
			if err != nil {
				return nil, err
			}
			msg, err := c.readBytes(maxShardErrText)
			if err != nil {
				return nil, err
			}
			return nil, &SweepError{Sweep: int(idU), Msg: string(msg)}
		case frameShardErr:
			// Pre-ack rejection (bad token, version mismatch).
			if _, err := c.readUvarint(); err != nil {
				return nil, err
			}
			msg, err := c.readBytes(maxShardErrText)
			if err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("transport: control plane %s rejected submit: %s", addr, msg)
		default:
			return nil, fmt.Errorf("%w: 0x%02x awaiting sweep result", ErrBadType, ft)
		}
	}
}
