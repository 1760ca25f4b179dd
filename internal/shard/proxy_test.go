package shard

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"anondyn/internal/rng"
)

// faultKind is what a proxy does to a worker's byte stream once it has
// forwarded a fault's first at bytes.
type faultKind int

const (
	faultNone     faultKind = iota
	faultReset              // reset both connections
	faultTruncate           // end the stream cleanly (FIN) to the coordinator
	faultStall              // forward nothing more; the coordinator's I/O bound must fire
	faultDelay              // hold the stream for faultHold, then forward the rest
)

func (k faultKind) String() string {
	return [...]string{"none", "reset", "truncate", "stall", "delay"}[k]
}

// faultHold is how long a faultDelay holds the stream: well inside any
// I/O bound the tests set, so a delay must never cost a requeue.
const faultHold = 50 * time.Millisecond

// fault is one injected network failure: kind applies after the
// worker's stream has delivered exactly at bytes to the coordinator.
type fault struct {
	kind faultKind
	at   int
}

// proxy is a TCP proxy between a coordinator and a worker that injects
// one fault into the worker → coordinator stream of its first
// connection; later connections (the redial or rejoin after the fault)
// forward cleanly. It sits on either topology: in dial-out the
// coordinator dials the proxy and the target is a listening worker; in
// dial-in the worker dials the proxy and the target is a listening
// control plane.
//
// On the first connection it also records the worker's bytes and, each
// time the coordinator speaks, how many of them had been forwarded.
// The worker is silent between a done frame and its next task, so
// those marks are the exchange boundaries — measured on a clean pass,
// they place a cut without decoding a single frame.
type proxy struct {
	ln             net.Listener
	target         string
	workerIsTarget bool
	fault          fault

	mu     sync.Mutex
	conns  int
	fired  chan struct{} // closed when the fault fires
	stream []byte        // first connection: the worker bytes forwarded
	marks  []int         // first connection: len(stream) at each coordinator chunk
	live   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newProxy listens on loopback and forwards every connection to target;
// workerIsTarget selects dial-out (true) or dial-in (false).
func newProxy(t testing.TB, target string, workerIsTarget bool, f fault) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{
		ln: ln, target: target, workerIsTarget: workerIsTarget, fault: f,
		fired: make(chan struct{}),
		live:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(p.close)
	return p
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) serve() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		first := p.conns == 0
		p.conns++
		p.live[in], p.live[out] = struct{}{}, struct{}{}
		p.mu.Unlock()
		worker, coord := in, out
		if p.workerIsTarget {
			worker, coord = out, in
		}
		f := fault{}
		if first {
			f = p.fault
		}
		p.wg.Add(1)
		go p.pair(worker.(*net.TCPConn), coord.(*net.TCPConn), first, f)
	}
}

// pair pumps one connection pair until either end goes away; closing
// either end ends the other.
func (p *proxy) pair(worker, coord *net.TCPConn, first bool, f fault) {
	defer p.wg.Done()
	gone := make(chan struct{}) // closed once the coordinator stops talking
	go func() {
		defer close(gone)
		defer worker.Close()
		buf := make([]byte, 4096)
		for {
			n, err := coord.Read(buf)
			if n > 0 {
				if first {
					p.mu.Lock()
					p.marks = append(p.marks, len(p.stream))
					p.mu.Unlock()
				}
				if _, err := worker.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	p.pumpWorker(worker, coord, first, f, gone)
	coord.Close()
	<-gone
	p.drop(worker)
	p.drop(coord)
}

// pumpWorker forwards the worker's stream to the coordinator, applying
// f once the coordinator has been sent exactly f.at bytes. It returns
// when the worker's side ends or the fault has cut the pair.
func (p *proxy) pumpWorker(worker, coord *net.TCPConn, first bool, f fault, gone <-chan struct{}) {
	sent := 0
	buf := make([]byte, 4096)
	for {
		n, err := worker.Read(buf)
		chunk := buf[:n]
		if f.kind != faultNone && sent+n >= f.at {
			head := chunk[:f.at-sent]
			if !p.forward(coord, head, first) {
				return
			}
			sent, chunk = f.at, chunk[len(head):]
			close(p.fired)
			switch f.kind {
			case faultReset:
				worker.SetLinger(0) //nolint:errcheck
				coord.SetLinger(0)  //nolint:errcheck
				return
			case faultTruncate:
				coord.CloseWrite() //nolint:errcheck
				<-gone
				return
			case faultStall:
				<-gone
				return
			}
			time.Sleep(faultHold) // faultDelay
			f.kind = faultNone
		}
		if !p.forward(coord, chunk, first) || err != nil {
			return
		}
		sent += len(chunk)
	}
}

// forward writes one chunk of the worker's stream to the coordinator,
// recording it on the first connection first: the coordinator can only
// answer bytes it has read, so every mark sees them counted.
func (p *proxy) forward(coord net.Conn, b []byte, first bool) bool {
	if len(b) == 0 {
		return true
	}
	if first {
		p.mu.Lock()
		p.stream = append(p.stream, b...)
		p.mu.Unlock()
	}
	_, err := coord.Write(b)
	return err == nil
}

func (p *proxy) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
}

func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for c := range p.live {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// hasFired reports whether the fault has fired.
func (p *proxy) hasFired() bool {
	select {
	case <-p.fired:
		return true
	default:
		return false
	}
}

// workerStream returns the worker bytes the first connection forwarded.
func (p *proxy) workerStream() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.stream...)
}

// exchanges returns the first connection's exchange boundaries as
// offsets into the worker's stream: the end of the handshake, then the
// end of each task's done frame, in order. Meaningful after a clean
// pass.
func (p *proxy) exchanges() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ex []int
	for _, m := range append(p.marks, len(p.stream)) {
		if m > 0 && (len(ex) == 0 || m > ex[len(ex)-1]) {
			ex = append(ex, m)
		}
	}
	return ex
}

// TestFaultSoak cuts the worker's stream in both topologies at seeded
// offsets with every fault kind, and every sweep must still merge to
// rows byte-identical to the local run. A cut strictly inside a task's
// exchange must cost that shard a requeue; a delay stays inside the
// I/O bound and must cost nothing.
func TestFaultSoak(t *testing.T) {
	const (
		cuts      = 6
		ioTimeout = 500 * time.Millisecond
	)
	data, _, local := localReference(t, 6)
	kinds := []faultKind{faultReset, faultTruncate, faultStall, faultDelay}
	r := rng.New(33)
	check := func(t *testing.T, res *Result, f fault, ex []int) {
		t.Helper()
		assertParity(t, res.Rows, local)
		inTask := false
		for i := 1; i < len(ex); i++ {
			inTask = inTask || ex[i-1] < f.at && f.at < ex[i]
		}
		switch {
		case f.kind == faultDelay && res.Requeues != 0:
			t.Errorf("requeues = %d after a delay inside the I/O bound, want 0", res.Requeues)
		case f.kind != faultDelay && inTask && res.Requeues < 1:
			t.Errorf("requeues = %d after a cut inside a task (boundaries %v), want ≥ 1", res.Requeues, ex)
		}
	}
	// Each topology is measured on a clean pass first (one worker, so
	// the stream is the same on every pass); its cuts land anywhere in
	// that stream, handshake included.
	t.Run("dial-out", func(t *testing.T) {
		addr := startWorkers(t, 1)[0]
		clean := newProxy(t, addr, true, fault{})
		parityCase(t, 6, 4, []string{clean.addr()}, PlaneOptions{})
		ex := clean.exchanges()
		for range cuts {
			f := fault{kind: kinds[r.Intn(len(kinds))], at: r.Intn(ex[len(ex)-1])}
			t.Run(fmt.Sprintf("%v@%d", f.kind, f.at), func(t *testing.T) {
				p := newProxy(t, addr, true, f)
				res := parityCase(t, 6, 4, []string{p.addr()}, PlaneOptions{IOTimeout: ioTimeout})
				if !p.hasFired() {
					t.Fatalf("the %v at byte %d never fired", f.kind, f.at)
				}
				check(t, res, f, ex)
			})
		}
	})
	t.Run("dial-in", func(t *testing.T) {
		_, clean := dialInPass(t, data, 6, fault{}, false, ioTimeout)
		ex := clean.exchanges()
		for range cuts {
			f := fault{kind: kinds[r.Intn(len(kinds))], at: r.Intn(ex[len(ex)-1])}
			t.Run(fmt.Sprintf("%v@%d", f.kind, f.at), func(t *testing.T) {
				res, _ := dialInPass(t, data, 6, f, true, ioTimeout)
				check(t, res, f, ex)
			})
		}
	})
}
