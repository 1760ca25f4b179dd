package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"anondyn/examples/specs"
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
