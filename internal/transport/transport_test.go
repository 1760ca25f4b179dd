package transport

import (
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/network"
	"anondyn/internal/sim"
)

type netConn = net.Conn

func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// runDistributed spins a hub plus n client goroutines over loopback TCP
// and returns both sides' results.
func runDistributed(t *testing.T, n int, hubCfg HubConfig,
	newProc func(node int) func(n, selfPort int) (core.Process, error)) (*HubResult, []*ClientResult) {
	t.Helper()
	hub, err := NewHub("127.0.0.1:0", hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		hubRes *HubResult
		hubErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		hubRes, hubErr = hub.Serve()
	}()

	// Connection order defines hub-side node IDs, so concurrent dials
	// permute which client becomes which node; the test process
	// factories therefore derive everything (including inputs) from the
	// selfPort the hub hands out, never from the loop index.
	clients := make([]*ClientResult, n)
	clientErrs := make([]error, n)
	var cwg sync.WaitGroup
	for i := 0; i < n; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			clients[i], clientErrs[i] = RunClient(hub.Addr(), ClientConfig{
				NewProcess: newProc(i),
				IOTimeout:  10 * time.Second,
			})
		}(i)
	}
	cwg.Wait()
	wg.Wait()
	if hubErr != nil {
		t.Fatalf("hub: %v", hubErr)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return hubRes, clients
}

func TestDistributedDACCompleteGraph(t *testing.T) {
	n, eps := 7, 1e-3
	// Inputs are delivered per client; since connection order is
	// nondeterministic, every client derives its input from the self
	// port the hub hands it (identity numbering ⇒ selfPort = node ID).
	newProc := func(client int) func(n, selfPort int) (core.Process, error) {
		return func(n, selfPort int) (core.Process, error) {
			input := float64(selfPort) / float64(n-1)
			return core.NewDAC(n, selfPort, input, eps)
		}
	}
	hubRes, clients := runDistributed(t, n, HubConfig{
		N:         n,
		Adversary: adversary.NewComplete(),
		IOTimeout: 10 * time.Second,
	}, newProc)

	if !hubRes.Decided {
		t.Fatalf("hub: undecided after %d rounds", hubRes.Rounds)
	}
	if hubRes.Rounds != core.PEndDAC(eps) {
		t.Errorf("rounds = %d, want %d (complete graph)", hubRes.Rounds, core.PEndDAC(eps))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, cr := range clients {
		if !cr.Decided {
			t.Fatalf("client (port %d) undecided", cr.SelfPort)
		}
		lo = math.Min(lo, cr.Output)
		hi = math.Max(hi, cr.Output)
	}
	if hi-lo > eps {
		t.Errorf("client output range %g > ε", hi-lo)
	}
	// Hub-side and client-side outputs agree.
	for id, out := range hubRes.Outputs {
		if out < lo-1e-9 || out > hi+1e-9 {
			t.Errorf("hub output for node %d (%g) outside client range", id, out)
		}
	}
}

func TestDistributedDACRotatingAdversary(t *testing.T) {
	n, eps := 7, 1e-2
	rot, err := adversary.NewRotating(3)
	if err != nil {
		t.Fatal(err)
	}
	newProc := func(client int) func(n, selfPort int) (core.Process, error) {
		return func(n, selfPort int) (core.Process, error) {
			return core.NewDAC(n, selfPort, float64(selfPort)/float64(n-1), eps)
		}
	}
	hubRes, _ := runDistributed(t, n, HubConfig{
		N:         n,
		Adversary: rot,
		MaxRounds: 500,
		IOTimeout: 10 * time.Second,
	}, newProc)
	if !hubRes.Decided {
		t.Fatalf("undecided under rotating(3) after %d rounds", hubRes.Rounds)
	}
	// The hub's trace must provide the degree the adversary promises.
	ff := make([]int, n)
	for i := range ff {
		ff[i] = i
	}
	if network.MaxDynaDegree(hubRes.Trace, ff, 1) < 3 {
		t.Error("recorded trace lost the (1,3) guarantee")
	}
}

func TestDistributedMatchesSimulation(t *testing.T) {
	// The same deterministic scenario through the TCP stack and through
	// the in-process engine must produce identical outputs.
	n, eps := 5, 1e-3
	newProc := func(client int) func(n, selfPort int) (core.Process, error) {
		return func(n, selfPort int) (core.Process, error) {
			return core.NewDAC(n, selfPort, float64(selfPort)/float64(n-1), eps)
		}
	}
	hubRes, _ := runDistributed(t, n, HubConfig{
		N:         n,
		Adversary: adversary.NewComplete(),
		IOTimeout: 10 * time.Second,
	}, newProc)

	procs := make([]core.Process, n)
	for i := 0; i < n; i++ {
		d, err := core.NewDAC(n, i, float64(i)/float64(n-1), eps)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = d
	}
	eng, err := sim.NewEngine(sim.Config{N: n, Procs: procs, Adversary: adversary.NewComplete()})
	if err != nil {
		t.Fatal(err)
	}
	simRes := eng.Run()
	if hubRes.Rounds != simRes.Rounds {
		t.Errorf("rounds: tcp %d, sim %d", hubRes.Rounds, simRes.Rounds)
	}
	for id, want := range simRes.Outputs {
		got, ok := hubRes.Outputs[id]
		if !ok {
			t.Errorf("node %d missing from tcp outputs", id)
			continue
		}
		// Status frames quantize to 30 fractional bits.
		if math.Abs(got-want) > 1.0/(1<<29) {
			t.Errorf("node %d: tcp %g, sim %g", id, got, want)
		}
	}
}

func TestHubValidation(t *testing.T) {
	if _, err := NewHub("127.0.0.1:0", HubConfig{N: 0, Adversary: adversary.NewComplete()}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewHub("127.0.0.1:0", HubConfig{N: 3}); err == nil {
		t.Error("nil adversary accepted")
	}
	if _, err := NewHub("127.0.0.1:0", HubConfig{
		N: 3, Adversary: adversary.NewComplete(), Ports: network.IdentityPorts(2),
	}); err == nil {
		t.Error("mismatched ports accepted")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := RunClient("127.0.0.1:1", ClientConfig{}); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestClientVersionMismatch(t *testing.T) {
	// A fake hub that answers the hello with a wrong version.
	hub, err := NewHub("127.0.0.1:0", HubConfig{N: 1, Adversary: adversary.NewComplete()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	go func() {
		raw, err := hub.ln.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		c := newConn(raw)
		c.readType()                        //nolint:errcheck
		c.readUvarint()                     //nolint:errcheck
		c.writeFrame(frameConfig, 99, 1, 0) //nolint:errcheck
		c.flush()                           //nolint:errcheck
	}()
	_, err = RunClient(hub.Addr(), ClientConfig{
		NewProcess: func(n, selfPort int) (core.Process, error) {
			return core.NewDAC(n, selfPort, 0.5, 0.1)
		},
		IOTimeout: 5 * time.Second,
	})
	if !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

// dialWait dials with brief retries (the hub's accept loop may not be
// scheduled yet).
func dialWait(addr string) (netConn, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		c, err := netDial(addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, lastErr
}

func TestHubFailsCleanlyOnMidRoundDisconnect(t *testing.T) {
	// One real node plus one that vanishes after the handshake: the hub
	// must error out of Serve, and the surviving client must get a
	// connection error rather than hang.
	hub, err := NewHub("127.0.0.1:0", HubConfig{
		N:         2,
		Adversary: adversary.NewComplete(),
		IOTimeout: 2 * time.Second,
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

	// The deserter: handshake, then slam the connection.
	raw, err := dialWait(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.writeFrame(frameHello, protocolVersion); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.readType(); err != nil { // config frame
		t.Fatal(err)
	}

	clientDone := make(chan error, 1)
	go func() {
		_, err := RunClient(hub.Addr(), ClientConfig{
			NewProcess: func(n, selfPort int) (core.Process, error) {
				return core.NewDAC(n, selfPort, 0.5, 0.1)
			},
			IOTimeout: 5 * time.Second,
		})
		clientDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	raw.Close() // desert mid-execution

	select {
	case err := <-hubDone:
		if err == nil {
			t.Error("hub succeeded despite a deserting node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hub hung on a deserting node")
	}
	select {
	case err := <-clientDone:
		if err == nil {
			t.Error("surviving client claims success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving client hung")
	}
}

func TestHubTimeoutOnSilentNode(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", HubConfig{
		N:         1,
		Adversary: adversary.NewComplete(),
		IOTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	done := make(chan error, 1)
	go func() {
		_, err := hub.Serve()
		done <- err
	}()
	// Connect but never speak.
	raw, err := dialWait(hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("hub succeeded against a silent node")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub hung on a silent node despite IOTimeout")
	}
}
