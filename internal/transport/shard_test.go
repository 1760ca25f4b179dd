package transport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
)

// echoWorker accepts one connection and answers every task with a
// synthetic record stream (run index i → rounds=i, range=i/10) followed
// by done, until the stop frame.
func echoWorker(t *testing.T, ln net.Listener, capacity int) {
	t.Helper()
	raw, err := ln.Accept()
	if err != nil {
		return
	}
	defer raw.Close()
	srv, err := AcceptShard(raw, capacity, "", 5*time.Second)
	if err != nil {
		t.Errorf("worker handshake: %v", err)
		return
	}
	for {
		task, err := srv.Next()
		if errors.Is(err, ErrShutdown) {
			return
		}
		if err != nil {
			t.Errorf("worker next: %v", err)
			return
		}
		for i := task.Lo; i < task.Hi; i++ {
			rec := ShardRecord{
				Run:          i,
				Decided:      i%2 == 0,
				Rounds:       i,
				Bytes:        3 * i,
				OutRangeBits: math.Float64bits(float64(i) / 10),
				Violation:    i%3 == 0,
			}
			if err := srv.WriteRecord(rec); err != nil {
				t.Errorf("worker record: %v", err)
				return
			}
		}
		if err := srv.Done(task.Shard, task.Runs()); err != nil {
			t.Errorf("worker done: %v", err)
			return
		}
	}
}

func TestShardProtocolRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echoWorker(t, ln, 4)
	}()

	cl, err := DialShard(ln.Addr().String(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Capacity != 4 {
		t.Errorf("capacity = %d, want 4", cl.Capacity)
	}
	for _, task := range []ShardTask{
		{Shard: 0, Lo: 0, Hi: 5, SeedsPerCell: 2, Spec: []byte("ns: [3]")},
		{Shard: 1, Lo: 5, Hi: 7, Spec: []byte("{}")},
	} {
		var got []ShardRecord
		if err := cl.RunShard(task, func(r ShardRecord) error {
			got = append(got, r)
			return nil
		}, nil); err != nil {
			t.Fatalf("shard %d: %v", task.Shard, err)
		}
		if len(got) != task.Runs() {
			t.Fatalf("shard %d: %d records, want %d", task.Shard, len(got), task.Runs())
		}
		for j, r := range got {
			i := task.Lo + j
			want := ShardRecord{
				Run: i, Decided: i%2 == 0, Rounds: i, Bytes: 3 * i,
				OutRangeBits: math.Float64bits(float64(i) / 10), Violation: i%3 == 0,
			}
			if r != want {
				t.Errorf("record %d = %+v, want %+v", i, r, want)
			}
		}
	}
	cl.Stop()
	wg.Wait()
}

// TestShardMetricsFramesRoundTrip: v3 telemetry frames interleave with
// the record stream without perturbing it, the task's cadence field
// round-trips, and a client that passes a nil onMetrics skips the
// frames silently.
func TestShardMetricsFramesRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serve := func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		srv, err := AcceptShard(raw, 2, "", 5*time.Second)
		if err != nil {
			t.Errorf("worker handshake: %v", err)
			return
		}
		task, err := srv.Next()
		if err != nil {
			return
		}
		if task.MetricsEveryRuns != 2 {
			t.Errorf("task cadence = %d, want 2", task.MetricsEveryRuns)
		}
		for i := task.Lo; i < task.Hi; i++ {
			if err := srv.WriteRecord(ShardRecord{Run: i, Rounds: i}); err != nil {
				t.Errorf("worker record: %v", err)
				return
			}
			done := i - task.Lo + 1
			if done%task.MetricsEveryRuns == 0 {
				if err := srv.WriteMetrics(ShardMetrics{
					Shard: task.Shard, Runs: uint64(done), Rounds: uint64(100 * done),
					Delivered: 7, Busy: 1, Workers: 2,
				}); err != nil {
					t.Errorf("worker metrics: %v", err)
					return
				}
			}
		}
		if err := srv.Done(task.Shard, task.Runs()); err != nil {
			t.Errorf("worker done: %v", err)
		}
	}
	go serve()

	cl, err := DialShard(ln.Addr().String(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	task := ShardTask{Shard: 3, Lo: 0, Hi: 5, MetricsEveryRuns: 2, Spec: []byte("ns: [3]")}
	var recs []ShardRecord
	var frames []ShardMetrics
	err = cl.RunShard(task, func(r ShardRecord) error {
		recs = append(recs, r)
		return nil
	}, func(m ShardMetrics) { frames = append(frames, m) })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("%d records, want 5 (metrics frames must not consume run indices)", len(recs))
	}
	want := []ShardMetrics{
		{Shard: 3, Runs: 2, Rounds: 200, Delivered: 7, Busy: 1, Workers: 2},
		{Shard: 3, Runs: 4, Rounds: 400, Delivered: 7, Busy: 1, Workers: 2},
	}
	if !reflect.DeepEqual(frames, want) {
		t.Errorf("metrics frames = %+v, want %+v", frames, want)
	}

	// Same exchange with a nil onMetrics: the frames are read and
	// discarded, the record stream is untouched.
	go serve()
	cl2, err := DialShard(ln.Addr().String(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	n := 0
	if err := cl2.RunShard(task, func(ShardRecord) error { n++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("%d records with nil onMetrics, want 5", n)
	}
}

// TestShardRecordGapRejected: the coordinator's record stream is
// strictly sequential — a worker that skips a run index (the symptom of
// a silently dropped run) is a malformed stream, never a clean merge.
func TestShardRecordGapRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		srv, err := AcceptShard(raw, 1, "", 5*time.Second)
		if err != nil {
			return
		}
		task, err := srv.Next()
		if err != nil {
			return
		}
		srv.WriteRecord(ShardRecord{Run: task.Lo})     //nolint:errcheck
		srv.WriteRecord(ShardRecord{Run: task.Lo + 2}) //nolint:errcheck // the gap
		srv.Done(task.Shard, task.Runs())              //nolint:errcheck
	}()
	cl, err := DialShard(ln.Addr().String(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.RunShard(ShardTask{Shard: 0, Lo: 0, Hi: 3, Spec: []byte("ns: [3]")},
		func(ShardRecord) error { return nil }, nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame for a gapped record stream", err)
	}
}

// TestShardServerRejectsVersionMismatch: a worker refuses a coordinator
// one version behind (v4 against v5: the task frame lost a field) as
// well as a nonsense version.
func TestShardServerRejectsVersionMismatch(t *testing.T) {
	for _, ver := range []uint64{protocolVersion - 1, 99} {
		func() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			errCh := make(chan error, 1)
			go func() {
				raw, err := ln.Accept()
				if err != nil {
					errCh <- err
					return
				}
				defer raw.Close()
				_, err = AcceptShard(raw, 1, "", 2*time.Second)
				errCh <- err
			}()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			c := newConn(raw)
			if err := c.writeFrame(frameShardHello, ver); err != nil {
				t.Fatal(err)
			}
			if err := c.flush(); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; !errors.Is(err, ErrVersion) {
				t.Errorf("v%d hello: worker err = %v, want ErrVersion", ver, err)
			}
		}()
	}
}

func TestShardFailReportsDeterministicError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		srv, err := AcceptShard(raw, 1, "", 5*time.Second)
		if err != nil {
			return
		}
		task, err := srv.Next()
		if err != nil {
			return
		}
		srv.Fail(task.Shard, "spec: empty document") //nolint:errcheck
	}()
	cl, err := DialShard(ln.Addr().String(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.RunShard(ShardTask{Shard: 7, Lo: 0, Hi: 3, Spec: []byte("")}, func(ShardRecord) error { return nil }, nil)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Shard != 7 || !strings.Contains(se.Msg, "empty document") {
		t.Errorf("shard error = %+v", se)
	}
}

// TestHubReleasesSlotOnBadHandshake: a bad-version connect must not
// consume one of the n seats — a good node arriving afterwards still
// brings the hub to n and the execution completes.
func TestHubReleasesSlotOnBadHandshake(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	hub, err := NewHub("127.0.0.1:0", HubConfig{
		N:         2,
		Adversary: adversary.NewComplete(),
		IOTimeout: 5 * time.Second,
		Log: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hubDone := make(chan error, 1)
	go func() {
		_, err := hub.Serve()
		hubDone <- err
	}()

	// The impostor: wrong protocol version. The hub must reject it and
	// keep the slot free.
	raw, err := dialWait(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.writeFrame(frameHello, protocolVersion+41); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	// The hub closes the rejected connection; observe it.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := c.readType(); err == nil {
		t.Fatal("hub answered a bad-version hello instead of rejecting it")
	}
	raw.Close()

	// A second impostor that disconnects before completing the
	// handshake must not burn the slot either.
	raw2, err := dialWait(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw2.Close()

	// The genuine nodes still bring the hub to n=2 and the execution
	// finishes.
	results := make([]*ClientResult, 2)
	clientErrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], clientErrs[i] = RunClient(hub.Addr(), ClientConfig{
				NewProcess: func(n, selfPort int) (core.Process, error) {
					return core.NewDAC(n, selfPort, float64(selfPort), 0.1)
				},
				IOTimeout: 5 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i := range results {
		if clientErrs[i] != nil {
			t.Fatalf("good client %d after bad handshakes: %v", i, clientErrs[i])
		}
		if !results[i].Decided {
			t.Errorf("good client %d undecided", i)
		}
	}
	select {
	case err := <-hubDone:
		if err != nil {
			t.Errorf("hub: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not finish")
	}
	// Both rejections must have been logged — a silently waiting hub is
	// undiagnosable from the operator's side.
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) != 2 {
		t.Errorf("logged %d rejections, want 2: %q", len(logged), logged)
	}
	for _, line := range logged {
		if !strings.Contains(line, "rejected") {
			t.Errorf("log line %q does not mention the rejection", line)
		}
	}
}

// TestHubAbortsAfterRepeatedRejections: a stale node in a restart loop
// must eventually abort the hub instead of spinning reject/accept
// forever.
func TestHubAbortsAfterRepeatedRejections(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", HubConfig{
		N:         1,
		Adversary: adversary.NewComplete(),
		IOTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hubDone := make(chan error, 1)
	go func() {
		_, err := hub.Serve()
		hubDone <- err
	}()
	for i := 0; i < maxHandshakeRejections; i++ {
		raw, err := dialWait(hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw)
		if err := c.writeFrame(frameHello, protocolVersion+1); err != nil {
			t.Fatal(err)
		}
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		c.readType()                                         //nolint:errcheck // wait for the hub to drop us
		raw.Close()
	}
	select {
	case err := <-hubDone:
		if err == nil || !errors.Is(err, ErrVersion) {
			t.Errorf("hub err = %v, want rejection-cap abort wrapping ErrVersion", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hub kept accepting past the rejection cap")
	}
}
