package transport

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// acceptOne runs AcceptControlPlane on one inbound connection and
// returns the classification (closing the conn on rejection).
func acceptOne(t *testing.T, ln net.Listener, token string) (*Accepted, error) {
	t.Helper()
	raw, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	acc, err := AcceptControlPlane(raw, token, 5*time.Second)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return acc, nil
}

// TestJoinHandshakeRoundTrip: a worker joining the control plane gets
// the same task → record → done session a dialed worker speaks, with
// the capacity announcement intact.
func TestJoinHandshakeRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acceptResult struct {
		acc *Accepted
		err error
	}
	accCh := make(chan acceptResult, 1)
	go func() {
		acc, err := acceptOne(t, ln, "s3cret")
		accCh <- acceptResult{acc, err}
	}()

	srv, err := JoinControlPlane(ln.Addr().String(), 6, "s3cret", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := <-accCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.acc.Worker == nil || res.acc.Submit != nil {
		t.Fatalf("accept classified %+v, want a worker", res.acc)
	}
	cl := res.acc.Worker
	defer cl.Close()
	if cl.Capacity != 6 {
		t.Errorf("joined capacity = %d, want 6", cl.Capacity)
	}

	// The inverted connection speaks the ordinary shard session.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		task, err := srv.Next()
		if err != nil {
			t.Errorf("worker next: %v", err)
			return
		}
		for i := task.Lo; i < task.Hi; i++ {
			if err := srv.WriteRecord(ShardRecord{Run: i, Rounds: 2 * i}); err != nil {
				t.Errorf("worker record: %v", err)
				return
			}
		}
		if err := srv.Done(task.Shard, task.Runs()); err != nil {
			t.Errorf("worker done: %v", err)
		}
	}()
	var got []ShardRecord
	err = cl.RunShard(ShardTask{Shard: 2, Lo: 3, Hi: 6, Spec: []byte("ns: [3]")},
		func(r ShardRecord) error { got = append(got, r); return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Run != 3 || got[2].Rounds != 10 {
		t.Errorf("records over joined conn = %+v", got)
	}
	wg.Wait()
}

// TestJoinRejectsBadToken: a wrong token is refused before any
// membership state exists, and the worker gets a diagnostic that never
// echoes the secret.
func TestJoinRejectsBadToken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := acceptOne(t, ln, "right")
		errCh <- err
	}()
	_, err = JoinControlPlane(ln.Addr().String(), 1, "wrong", 5*time.Second)
	if err == nil {
		t.Fatal("join with a bad token succeeded")
	}
	if !strings.Contains(err.Error(), "bad token") {
		t.Errorf("worker-side err = %v, want the bad-token diagnostic", err)
	}
	if strings.Contains(err.Error(), "right") || strings.Contains(err.Error(), "wrong") {
		t.Errorf("diagnostic %q echoes a token", err)
	}
	if err := <-errCh; !errors.Is(err, ErrAuth) {
		t.Errorf("control-plane err = %v, want ErrAuth", err)
	}
}

// TestWorkerLeaveSurfacesAsErrWorkerLeft: a leave frame racing a task
// onto the wire turns into ErrWorkerLeft on the control-plane side so
// the shard can be requeued without a failure charge.
func TestWorkerLeaveSurfacesAsErrWorkerLeft(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acceptResult struct {
		acc *Accepted
		err error
	}
	accCh := make(chan acceptResult, 1)
	go func() {
		acc, err := acceptOne(t, ln, "")
		accCh <- acceptResult{acc, err}
	}()
	srv, err := JoinControlPlane(ln.Addr().String(), 1, "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := <-accCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	cl := res.acc.Worker
	defer cl.Close()

	if err := srv.Leave(); err != nil {
		t.Fatal(err)
	}
	err = cl.RunShard(ShardTask{Shard: 0, Lo: 0, Hi: 2, Spec: []byte("{}")},
		func(ShardRecord) error { return nil }, nil)
	if !errors.Is(err, ErrWorkerLeft) {
		t.Errorf("err = %v, want ErrWorkerLeft", err)
	}
}

// TestSubmitSweepRoundTrip: submit → ack → status pushes → rows, with
// the request fields and rows surviving the wire intact.
func TestSubmitSweepRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rows := []byte(`[{"n":4,"f":1}]`)
	go func() {
		acc, err := acceptOne(t, ln, "tok")
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if acc.Submit == nil {
			t.Error("submit classified as worker")
			return
		}
		s := acc.Submit
		defer s.Close()
		req := s.Req
		if req.SeedsPerCell != 2 || req.Shards != 7 || req.Name != "er-crash" || string(req.Spec) != "ns: [4]" {
			t.Errorf("request = %+v", req)
		}
		if err := s.Ack(3, 40); err != nil {
			t.Errorf("ack: %v", err)
			return
		}
		st := SweepStatus{Sweep: 3, State: SweepRunning, Done: 10, Total: 40, Requeues: 1, Workers: 2}
		if err := s.Status(st); err != nil {
			t.Errorf("status: %v", err)
			return
		}
		if err := s.Rows(3, rows); err != nil {
			t.Errorf("rows: %v", err)
		}
	}()

	var seen []SweepStatus
	got, err := SubmitSweep(ln.Addr().String(), "tok", SubmitRequest{
		SeedsPerCell: 2, Shards: 7, Name: "er-crash", Spec: []byte("ns: [4]"),
	}, 5*time.Second, func(st SweepStatus) { seen = append(seen, st) })
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(rows) {
		t.Errorf("rows = %s, want %s", got, rows)
	}
	if len(seen) != 1 || seen[0].Done != 10 || seen[0].State != SweepRunning || seen[0].Workers != 2 {
		t.Errorf("status pushes = %+v", seen)
	}
}

// TestSubmitSweepFailPropagates: a control-plane-side sweep failure
// arrives as a *SweepError carrying the id and message.
func TestSubmitSweepFailPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		acc, err := acceptOne(t, ln, "")
		if err != nil || acc.Submit == nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer acc.Submit.Close()
		acc.Submit.Ack(5, 8)                          //nolint:errcheck
		acc.Submit.Fail(5, "spec: unknown algorithm") //nolint:errcheck
	}()
	_, err = SubmitSweep(ln.Addr().String(), "", SubmitRequest{Spec: []byte("x")}, 5*time.Second, nil)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if se.Sweep != 5 || !strings.Contains(se.Msg, "unknown algorithm") {
		t.Errorf("sweep error = %+v", se)
	}
}

// TestSubmitRejectsBadToken: submissions authenticate exactly like
// joins.
func TestSubmitRejectsBadToken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := acceptOne(t, ln, "right")
		errCh <- err
	}()
	_, err = SubmitSweep(ln.Addr().String(), "wrong", SubmitRequest{Spec: []byte("x")}, 5*time.Second, nil)
	if err == nil || !strings.Contains(err.Error(), "bad token") {
		t.Errorf("client err = %v, want bad-token rejection", err)
	}
	if err := <-errCh; !errors.Is(err, ErrAuth) {
		t.Errorf("control-plane err = %v, want ErrAuth", err)
	}
}
