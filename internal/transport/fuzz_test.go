package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"anondyn/examples/specs"
	"anondyn/internal/core"
	"anondyn/internal/spec"
)

// discardWrites drops the worker's replies, so the fuzzed coordinator
// bytes can be written and closed without reading them back.
type discardWrites struct{ net.Conn }

func (discardWrites) Write(p []byte) (int, error) { return len(p), nil }

// FuzzWorkerTask feeds untrusted coordinator bytes to a worker: they
// arrive through a net.Pipe at AcceptShard, then ShardServer.Next, and
// an accepted task's spec goes to spec.Compile. Every input must end
// in an error or a compiled task, never a panic or a hang. The corpus
// is a well-formed hello and task frame around each committed spec.
func FuzzWorkerTask(f *testing.F) {
	for _, name := range specs.Names() {
		data, err := specs.Read(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		c := newConn(&buf)
		c.writeFrame(frameShardHello, protocolVersion) //nolint:errcheck // bytes.Buffer
		c.writeBytes(nil)                              //nolint:errcheck
		c.writeFrame(frameShardTask, 0, 0, 2, 1, 0, 0) //nolint:errcheck
		c.writeBytes(data)                             //nolint:errcheck
		c.flush()                                      //nolint:errcheck
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		worker, coordinator := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			coordinator.Write(data) //nolint:errcheck // the worker may stop reading early
			coordinator.Close()
		}()
		defer wg.Wait()
		defer worker.Close()
		s, err := AcceptShard(discardWrites{worker}, 1, "", time.Second)
		if err != nil {
			return
		}
		task, err := s.Next()
		if err != nil {
			return
		}
		spec.Compile(task.Spec, task.SeedsPerCell) //nolint:errcheck // an error is a valid outcome
	})
}

// bufferProbe is a DAC node that fails the test when a round's
// deliveries arrive in a buffer larger than the n the hub announced.
type bufferProbe struct {
	*core.DAC
	t *testing.T
	n int
}

func (p bufferProbe) DeliverAll(ds []core.Delivery) {
	if len(ds) > p.n || cap(ds) > p.n {
		p.t.Errorf("round delivered in a buffer of len %d, cap %d for n=%d", len(ds), cap(ds), p.n)
	}
	p.DAC.DeliverAll(ds)
}

// FuzzClientFrames feeds untrusted hub bytes to a node client through a
// net.Pipe: the config handshake, then round-start, deliver and stop
// frames. Every input must end in an error or a ClientResult, never a
// panic or a hang, and a round's deliveries must fit the n-entry buffer
// the client sized from the handshake. The corpus is one well-formed
// session: config for n = 3, one round delivering two messages, stop.
func FuzzClientFrames(f *testing.F) {
	var buf bytes.Buffer
	c := newConn(&buf)
	c.writeFrame(frameConfig, protocolVersion, 3, 0) //nolint:errcheck // bytes.Buffer
	c.writeFrame(frameRoundStart, 0)                 //nolint:errcheck
	c.writeFrame(frameDeliver, 0, 2)                 //nolint:errcheck
	for port, m := range []core.Message{{Value: 0.25}, {Value: 0.75, Phase: 1}} {
		c.writeUvarint(uint64(port + 1)) //nolint:errcheck
		c.writeMessage(m)                //nolint:errcheck
	}
	c.writeFrame(frameStop) //nolint:errcheck
	c.flush()               //nolint:errcheck
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		client, hub := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			hub.Write(data) //nolint:errcheck // the client may stop reading early
			hub.Close()
		}()
		defer wg.Wait()
		defer client.Close()
		res, err := runClient(discardWrites{client}, ClientConfig{
			NewProcess: func(n, selfPort int) (core.Process, error) {
				if n > 64 {
					return nil, fmt.Errorf("n=%d is past the fuzz cap", n)
				}
				d, err := core.NewDAC(n, selfPort, 0.5, 0.1)
				if err != nil {
					return nil, err
				}
				return bufferProbe{DAC: d, t: t, n: n}, nil
			},
			IOTimeout: time.Second,
		})
		if (res == nil) == (err == nil) {
			t.Fatalf("runClient returned result %v and error %v", res, err)
		}
	})
}

// FuzzShardClientStream feeds untrusted worker bytes to the
// coordinator's end of a shard session: RunShard ships a task through a
// net.Pipe and reads whatever comes back. Every input must end in an
// error or a clean done, never a panic or a hang, and onRecord may only
// ever see an in-order prefix of the task's runs (all of them, on a
// clean done). The corpus is a well-formed exchange — records with
// interleaved telemetry, then done —, the same records torn before
// done, a fail frame and a leave.
func FuzzShardClientStream(f *testing.F) {
	task := ShardTask{Shard: 2, Lo: 10, Hi: 14, SeedsPerCell: 2, MetricsEveryRuns: 2, Spec: []byte("ns: [3]")}
	add := func(write func(c *conn)) {
		var buf bytes.Buffer
		c := newConn(&buf)
		write(c)
		c.flush() //nolint:errcheck // bytes.Buffer
		f.Add(buf.Bytes())
	}
	record := func(c *conn, run int) {
		c.writeFrame(frameShardRecord, uint64(run), 1, 7, 300, math.Float64bits(1e-3), 0) //nolint:errcheck
	}
	add(func(c *conn) {
		for run := task.Lo; run < task.Hi; run++ {
			record(c, run)
			if done := run - task.Lo + 1; done%task.MetricsEveryRuns == 0 {
				c.writeFrame(frameShardMetrics, uint64(task.Shard), uint64(done), 40, 900, 1, 2) //nolint:errcheck
			}
		}
		c.writeFrame(frameShardDone, uint64(task.Shard), uint64(task.Runs())) //nolint:errcheck
	})
	add(func(c *conn) { // torn before done
		for run := task.Lo; run < task.Hi; run++ {
			record(c, run)
		}
	})
	add(func(c *conn) {
		record(c, task.Lo)
		c.writeFrame(frameShardErr, uint64(task.Shard)) //nolint:errcheck
		c.writeBytes([]byte("slice out of range"))      //nolint:errcheck
	})
	add(func(c *conn) { c.writeFrame(frameShardLeave) }) //nolint:errcheck
	f.Fuzz(func(t *testing.T, data []byte) {
		s, done := shardClientOver(data)
		defer done()
		next := task.Lo
		err := s.RunShard(task, func(r ShardRecord) error {
			if r.Run != next || r.Run >= task.Hi {
				t.Fatalf("onRecord got run %d, want %d of [%d,%d)", r.Run, next, task.Lo, task.Hi)
			}
			next++
			return nil
		}, func(ShardMetrics) {})
		if err == nil && next != task.Hi {
			t.Fatalf("clean done after runs [%d,%d) of [%d,%d)", task.Lo, next, task.Lo, task.Hi)
		}
	})
}

// FuzzAcceptControlPlane feeds untrusted first-frame bytes to a control
// plane's accept path through a net.Pipe. Every input must end in an
// error or exactly one typed session, never a panic or a hang. The
// corpus is a well-formed join, submit and status request, each with
// the plane's token, plus a join with the wrong one.
func FuzzAcceptControlPlane(f *testing.F) {
	const token = "s3cret"
	add := func(write func(c *conn)) {
		var buf bytes.Buffer
		c := newConn(&buf)
		write(c)
		c.flush() //nolint:errcheck // bytes.Buffer
		f.Add(buf.Bytes())
	}
	join := func(tok string) func(c *conn) {
		return func(c *conn) {
			c.writeFrame(frameShardJoin, protocolVersion, 4) //nolint:errcheck
			c.writeBytes([]byte(tok))                        //nolint:errcheck
		}
	}
	add(join(token))
	add(join("wrong"))
	add(func(c *conn) {
		c.writeFrame(frameSubmit, protocolVersion, 2, 3)     //nolint:errcheck
		c.writeBytes([]byte(token))                          //nolint:errcheck
		c.writeBytes([]byte("fuzz"))                         //nolint:errcheck
		c.writeBytes([]byte("ns: [3]\nalgorithms: [dac]\n")) //nolint:errcheck
	})
	add(func(c *conn) {
		c.writeFrame(frameStatusReq, protocolVersion) //nolint:errcheck
		c.writeBytes([]byte(token))                   //nolint:errcheck
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		plane, peer := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer.Write(data) //nolint:errcheck // the plane may stop reading early
			peer.Close()
		}()
		defer wg.Wait()
		defer plane.Close()
		acc, err := AcceptControlPlane(discardWrites{plane}, token, time.Second)
		if err != nil {
			if acc != nil {
				t.Fatalf("AcceptControlPlane returned a session and error %v", err)
			}
			return
		}
		sessions := 0
		for _, set := range []bool{acc.Worker != nil, acc.Submit != nil, acc.Status != nil} {
			if set {
				sessions++
			}
		}
		if sessions != 1 {
			t.Fatalf("accepted %d sessions, want exactly 1: %+v", sessions, acc)
		}
	})
}

// shardClientOver returns the coordinator's end of a shard session
// whose worker sends data and hangs up; the coordinator's own writes
// are dropped. Call done when finished with it.
func shardClientOver(data []byte) (s *ShardClient, done func()) {
	coordinator, worker := net.Pipe()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		worker.Write(data) //nolint:errcheck // the coordinator may stop reading early
		worker.Close()
	}()
	s = &ShardClient{raw: coordinator, c: newConn(discardWrites{coordinator}), timeout: time.Second}
	return s, func() { coordinator.Close(); <-sent }
}

// TestRunShardRejectsRecordPastShard: a worker that streams one record
// more than its shard holds fails the exchange as a malformed stream,
// and onRecord never sees the extra run.
func TestRunShardRejectsRecordPastShard(t *testing.T) {
	task := ShardTask{Shard: 1, Lo: 3, Hi: 6, Spec: []byte("ns: [3]")}
	var buf bytes.Buffer
	c := newConn(&buf)
	for run := task.Lo; run <= task.Hi; run++ {
		c.writeFrame(frameShardRecord, uint64(run), 1, 7, 300, 0, 0) //nolint:errcheck // bytes.Buffer
	}
	c.flush() //nolint:errcheck
	s, done := shardClientOver(buf.Bytes())
	defer done()
	var seen []int
	err := s.RunShard(task, func(r ShardRecord) error {
		seen = append(seen, r.Run)
		return nil
	}, nil)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
	if want := []int{3, 4, 5}; !reflect.DeepEqual(seen, want) {
		t.Errorf("onRecord saw runs %v, want %v", seen, want)
	}
}
