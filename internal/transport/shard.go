package transport

import (
	"crypto/subtle"
	"fmt"
	"net"
	"time"
)

// The shard protocol is the second client of this package's framing: a
// sweep coordinator (dyna sweep -fleet) dials long-lived worker processes
// (dyna join -listen) and ships them shards — (spec, run-range) slices
// of a declarative sweep — to execute on their local harness pools.
// Workers stream one fixed-size record per run back in strict run
// order (the ordered-sink contract travels over the wire unchanged),
// so the coordinator can re-sequence shards into a result byte-equal
// to a single-process Grid.Run.
//
// Per connection: one hello/ready handshake, then any number of
// task → record-stream → done exchanges, ended by a stop frame.

// Limits on variable-length shard payloads.
const (
	maxSpecBytes    = 1 << 20 // a committed sweep file
	maxShardErrText = 1 << 12 // a worker's failure report
	maxTokenBytes   = 1 << 10 // a shared-secret auth token
	maxSweepName    = 1 << 10 // a submitted sweep's display name
	maxRowsBytes    = 1 << 24 // a completed sweep's aggregate rows (JSON)
)

// checkToken is the constant-time shared-secret comparison every
// handshake (v4 on) runs. Both sides must agree on the token (often the empty
// string: auth disabled); the compare is constant-time in the token
// contents so a listening port does not leak the secret byte-by-byte.
func checkToken(want string, got []byte) error {
	if subtle.ConstantTimeCompare([]byte(want), got) != 1 {
		return ErrAuth
	}
	return nil
}

// ShardTask names one unit of dispatch: a contiguous range of a
// sweep's global run indices (run i is seed BaseSeed+i of cell
// i/seedsPerCell, the Grid.RunEach flattening).
type ShardTask struct {
	// Shard is the task's position in the coordinator's plan.
	Shard int
	// Lo and Hi bound the global run-index range [Lo, Hi).
	Lo, Hi int
	// SeedsPerCell, when > 0, overrides the spec's seeds_per_cell —
	// both sides must agree on the flattening, so the override rides
	// with every task.
	SeedsPerCell int
	// MetricsEveryRuns, when > 0, asks the worker to interleave one
	// telemetry frame into the record stream every that-many completed
	// runs (plus one final frame before done). 0 = no telemetry (v2
	// behavior). Telemetry frames never carry result data, so the
	// coordinator's merge is unaffected by the cadence.
	MetricsEveryRuns int
	// Spec is the sweep document (YAML or JSON), shipped verbatim so
	// workers need no filesystem access.
	Spec []byte
}

// Runs returns the number of runs the task covers.
func (t ShardTask) Runs() int { return t.Hi - t.Lo }

// ShardRecord is the per-run result a worker streams back: exactly the
// fields a BatchStats fold consumes, with the output range shipped as
// IEEE bits so the merge is bit-exact.
type ShardRecord struct {
	// Run is the global run index (Lo ≤ Run < Hi, strictly ascending
	// within a shard).
	Run int
	// Decided reports whether every fault-free node decided.
	Decided bool
	// Rounds is the executed round count.
	Rounds int
	// Bytes is the delivered wire volume (0 unless the sweep accounts
	// bandwidth).
	Bytes int
	// OutRangeBits is math.Float64bits of the fault-free output range,
	// meaningful only when Decided.
	OutRangeBits uint64
	// Violation reports a validity or ε-agreement break, evaluated
	// worker-side against the cell's ε.
	Violation bool
}

// ShardMetrics is one live telemetry sample from a worker (v3): the
// worker's cumulative progress on the shard plus a point-in-time view
// of its pool. Purely observational — the coordinator folds it into a
// metrics collector and never lets it influence the merge.
type ShardMetrics struct {
	// Shard is the task the sample belongs to.
	Shard int
	// Runs and Rounds are the worker's cumulative completed runs and
	// simulated rounds for this shard.
	Runs, Rounds uint64
	// Delivered is the cumulative delivered-message count.
	Delivered uint64
	// Busy and Workers are the worker pool's busy count and size at
	// sample time.
	Busy, Workers int
}

// ShardError is a worker's deterministic rejection of a task (bad spec,
// out-of-range shard). Retrying it on another worker would fail the
// same way, so coordinators abort instead of requeueing.
type ShardError struct {
	Shard int
	Msg   string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("transport: shard %d failed on worker: %s", e.Shard, e.Msg)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ShardClient is the coordinator's end of one worker connection.
type ShardClient struct {
	raw     net.Conn
	c       *conn
	timeout time.Duration

	// Capacity is the worker-pool size the worker announced in the
	// handshake — a dispatch-weighting hint.
	Capacity int
}

// DialShard connects to a worker and performs the hello/ready
// handshake, presenting the shared-secret token (empty = auth
// disabled; both sides must agree). timeout bounds every subsequent
// frame exchange (for a record stream: the gap between consecutive
// records); 0 = none.
func DialShard(addr, token string, timeout time.Duration) (*ShardClient, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial worker %s: %w", addr, err)
	}
	s := &ShardClient{raw: raw, c: newConn(raw), timeout: timeout}
	s.deadline()
	if err := s.c.writeFrame(frameShardHello, protocolVersion); err != nil {
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
		return nil, err
	}
	if ft != frameShardReady {
		raw.Close()
		return nil, fmt.Errorf("%w: got 0x%02x, want shard ready", ErrBadType, ft)
	}
	ver, err := s.c.readUvarint()
	if err != nil {
		raw.Close()
		return nil, err
	}
	if ver != protocolVersion {
		raw.Close()
		return nil, fmt.Errorf("%w: worker speaks v%d, coordinator v%d", ErrVersion, ver, protocolVersion)
	}
	capU, err := s.c.readUvarint()
	if err != nil {
		raw.Close()
		return nil, err
	}
	s.Capacity = int(capU)
	return s, nil
}

func (s *ShardClient) deadline() {
	if s.timeout > 0 {
		s.raw.SetDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
	}
}

// RunShard ships one task and streams its records — validated to be in
// strict run order and complete — to onRecord, returning once the
// worker's done frame arrives. onMetrics, when non-nil, receives any
// telemetry frames the worker interleaves (nil drains them silently);
// telemetry never advances the record cursor. A *ShardError return
// means the worker rejected the task deterministically; any other
// error is a transport failure and the shard may be requeued elsewhere.
func (s *ShardClient) RunShard(task ShardTask, onRecord func(ShardRecord) error, onMetrics func(ShardMetrics)) error {
	if len(task.Spec) > maxSpecBytes {
		return fmt.Errorf("transport: spec of %d bytes exceeds limit %d", len(task.Spec), maxSpecBytes)
	}
	s.deadline()
	if err := s.c.writeFrame(frameShardTask,
		uint64(task.Shard), uint64(task.Lo), uint64(task.Hi),
		uint64(task.SeedsPerCell), uint64(task.MetricsEveryRuns)); err != nil {
		return err
	}
	if err := s.c.writeBytes(task.Spec); err != nil {
		return err
	}
	if err := s.c.flush(); err != nil {
		return err
	}
	next := task.Lo
	for {
		s.deadline() // refreshed per frame: bounds the gap between records
		ft, err := s.c.readType()
		if err != nil {
			return err
		}
		switch ft {
		case frameShardRecord:
			rec, err := s.readRecordBody()
			if err != nil {
				return err
			}
			if rec.Run != next || next == task.Hi {
				return fmt.Errorf("%w: record for run %d, want %d of [%d,%d)", ErrBadFrame, rec.Run, next, task.Lo, task.Hi)
			}
			next++
			if err := onRecord(rec); err != nil {
				return err
			}
		case frameShardDone:
			idx, err := s.c.readUvarint()
			if err != nil {
				return err
			}
			count, err := s.c.readUvarint()
			if err != nil {
				return err
			}
			if int(idx) != task.Shard || int(count) != next-task.Lo || next != task.Hi {
				return fmt.Errorf("%w: done(shard=%d, count=%d) after %d/%d records of shard %d",
					ErrBadFrame, idx, count, next-task.Lo, task.Runs(), task.Shard)
			}
			return nil
		case frameShardErr:
			idx, err := s.c.readUvarint()
			if err != nil {
				return err
			}
			msg, err := s.c.readBytes(maxShardErrText)
			if err != nil {
				return err
			}
			return &ShardError{Shard: int(idx), Msg: string(msg)}
		case frameShardMetrics:
			m, err := s.readMetricsBody()
			if err != nil {
				return err
			}
			if onMetrics != nil {
				onMetrics(m)
			}
		case frameShardLeave:
			// The worker announced a graceful leave between tasks; this
			// task was written after its announcement crossed the wire.
			// The caller requeues the shard without charging a failure.
			return ErrWorkerLeft
		default:
			return fmt.Errorf("%w: 0x%02x during shard %d", ErrBadType, ft, task.Shard)
		}
	}
}

func (s *ShardClient) readRecordBody() (ShardRecord, error) {
	var fields [6]uint64
	for i := range fields {
		v, err := s.c.readUvarint()
		if err != nil {
			return ShardRecord{}, err
		}
		fields[i] = v
	}
	return ShardRecord{
		Run:          int(fields[0]),
		Decided:      fields[1] == 1,
		Rounds:       int(fields[2]),
		Bytes:        int(fields[3]),
		OutRangeBits: fields[4],
		Violation:    fields[5] == 1,
	}, nil
}

func (s *ShardClient) readMetricsBody() (ShardMetrics, error) {
	var fields [6]uint64
	for i := range fields {
		v, err := s.c.readUvarint()
		if err != nil {
			return ShardMetrics{}, err
		}
		fields[i] = v
	}
	return ShardMetrics{
		Shard:     int(fields[0]),
		Runs:      fields[1],
		Rounds:    fields[2],
		Delivered: fields[3],
		Busy:      int(fields[4]),
		Workers:   int(fields[5]),
	}, nil
}

// Stop ends the session politely; the worker goes back to accepting
// coordinators. Close just tears the connection down.
func (s *ShardClient) Stop() {
	s.deadline()
	if err := s.c.writeFrame(frameStop); err == nil {
		s.c.flush() //nolint:errcheck // best effort during shutdown
	}
}

// Close releases the connection.
func (s *ShardClient) Close() { s.raw.Close() }

// ShardServer is the worker's end of one coordinator connection.
type ShardServer struct {
	raw     net.Conn
	c       *conn
	timeout time.Duration
}

// AcceptShard performs the worker-side handshake on an accepted
// connection, announcing the worker's pool capacity and verifying the
// shared-secret token (constant-time). A rejected handshake returns
// before the ready frame, so the dialing coordinator holds nothing —
// the connection is simply closed by the caller and no worker slot is
// consumed. timeout bounds each write and the reads within a task
// exchange; waiting for the next task is unbounded (coordinators
// legitimately idle a worker while others drain the queue).
func AcceptShard(raw net.Conn, capacity int, token string, timeout time.Duration) (*ShardServer, error) {
	s := &ShardServer{raw: raw, c: newConn(raw), timeout: timeout}
	s.deadline()
	ft, err := s.c.readType()
	if err != nil {
		return nil, err
	}
	if ft != frameShardHello {
		return nil, fmt.Errorf("%w: got 0x%02x, want shard hello", ErrBadType, ft)
	}
	ver, err := s.c.readUvarint()
	if err != nil {
		return nil, err
	}
	if ver != protocolVersion {
		return nil, fmt.Errorf("%w: coordinator speaks v%d, worker v%d", ErrVersion, ver, protocolVersion)
	}
	got, err := s.c.readBytes(maxTokenBytes)
	if err != nil {
		return nil, err
	}
	if err := checkToken(token, got); err != nil {
		return nil, err
	}
	if err := s.c.writeFrame(frameShardReady, protocolVersion, uint64(capacity)); err != nil {
		return nil, err
	}
	return s, s.c.flush()
}

// Conn exposes the underlying connection so a joining worker can track
// it for teardown (JoinControlPlane dials internally, unlike the
// accept path where the caller owns the net.Conn).
func (s *ShardServer) Conn() net.Conn { return s.raw }

func (s *ShardServer) deadline() {
	if s.timeout > 0 {
		s.raw.SetDeadline(time.Now().Add(s.timeout)) //nolint:errcheck
	}
}

// Next blocks for the next task. ErrShutdown means the coordinator
// ended the session (stop frame or disconnect) and the connection is
// done.
func (s *ShardServer) Next() (ShardTask, error) {
	s.raw.SetDeadline(time.Time{}) //nolint:errcheck // idle between tasks is fine
	ft, err := s.c.readType()
	if err != nil {
		return ShardTask{}, err
	}
	switch ft {
	case frameStop:
		return ShardTask{}, ErrShutdown
	case frameShardTask:
	default:
		return ShardTask{}, fmt.Errorf("%w: got 0x%02x, want shard task", ErrBadType, ft)
	}
	s.deadline()
	var fields [5]uint64
	for i := range fields {
		v, err := s.c.readUvarint()
		if err != nil {
			return ShardTask{}, err
		}
		fields[i] = v
	}
	specData, err := s.c.readBytes(maxSpecBytes)
	if err != nil {
		return ShardTask{}, err
	}
	task := ShardTask{
		Shard:            int(fields[0]),
		Lo:               int(fields[1]),
		Hi:               int(fields[2]),
		SeedsPerCell:     int(fields[3]),
		MetricsEveryRuns: int(fields[4]),
		Spec:             specData,
	}
	if task.Lo > task.Hi {
		return ShardTask{}, fmt.Errorf("%w: shard range [%d,%d)", ErrBadFrame, task.Lo, task.Hi)
	}
	return task, nil
}

// WriteRecord streams one run's result; records must be written in
// ascending run order.
func (s *ShardServer) WriteRecord(rec ShardRecord) error {
	s.deadline()
	if err := s.c.writeFrame(frameShardRecord,
		uint64(rec.Run), b2u(rec.Decided), uint64(rec.Rounds),
		uint64(rec.Bytes), rec.OutRangeBits, b2u(rec.Violation)); err != nil {
		return err
	}
	return s.c.flush()
}

// WriteMetrics interleaves one telemetry frame into the record stream.
// Safe at any point of a task exchange before Done/Fail; the cadence is
// the task's MetricsEveryRuns and callers should not exceed it.
func (s *ShardServer) WriteMetrics(m ShardMetrics) error {
	s.deadline()
	if err := s.c.writeFrame(frameShardMetrics,
		uint64(m.Shard), m.Runs, m.Rounds, m.Delivered,
		uint64(m.Busy), uint64(m.Workers)); err != nil {
		return err
	}
	return s.c.flush()
}

// Leave announces a graceful departure to the control plane: the
// worker is between tasks and will close the connection. The control
// plane requeues any task it raced onto the wire without charging the
// worker a failure.
func (s *ShardServer) Leave() error {
	s.deadline()
	if err := s.c.writeFrame(frameShardLeave); err != nil {
		return err
	}
	return s.c.flush()
}

// Done closes out one task.
func (s *ShardServer) Done(shard, count int) error {
	s.deadline()
	if err := s.c.writeFrame(frameShardDone, uint64(shard), uint64(count)); err != nil {
		return err
	}
	return s.c.flush()
}

// Fail reports a deterministic task failure (the coordinator aborts the
// sweep rather than requeueing).
func (s *ShardServer) Fail(shard int, msg string) error {
	if len(msg) > maxShardErrText {
		msg = msg[:maxShardErrText]
	}
	s.deadline()
	if err := s.c.writeFrame(frameShardErr, uint64(shard)); err != nil {
		return err
	}
	if err := s.c.writeBytes([]byte(msg)); err != nil {
		return err
	}
	return s.c.flush()
}
