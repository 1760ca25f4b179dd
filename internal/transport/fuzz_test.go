package transport

import (
	"bytes"
	"fmt"
	"net"
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
