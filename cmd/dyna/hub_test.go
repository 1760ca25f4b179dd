package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/transport"
)

// badAddr fails at listen time; since run parses the adversary before
// listening, a listen failure proves the grammar was accepted.
const badAddr = "256.256.256.256:99999"

func TestHubAcceptsRegistryGrammar(t *testing.T) {
	for _, spec := range []string{
		"complete", "halves", "chasemin", "isolate:0", "clustered:4",
		"rotating:3", "rotating:crashdeg", "starve:byzdeg", "starveperiod:3",
		"er:0.50", "er:0.3,42", "random:5,crashdeg,0.1,7",
	} {
		err := runHub([]string{"-adversary", spec, "-n", "5", "-f", "1", "-addr", badAddr})
		if err == nil || !strings.Contains(err.Error(), "listen") {
			t.Errorf("adversary %q: err = %v, want listen failure (grammar accepted)", spec, err)
		}
	}
	for _, bad := range []string{"rotating:x", "er:y", "clustered:", "mesh", "starveperiod:0", "isolate:v"} {
		err := runHub([]string{"-adversary", bad, "-addr", badAddr})
		if err == nil || strings.Contains(err.Error(), "listen") {
			t.Errorf("adversary %q accepted (err = %v)", bad, err)
		}
	}
}

func TestHubEnforcesFactoryCheck(t *testing.T) {
	// fig1 is defined on exactly 3 nodes; the factory's Check hook must
	// reject other sizes before the hub ever listens.
	err := runHub([]string{"-adversary", "fig1", "-n", "5", "-addr", badAddr})
	if err == nil || strings.Contains(err.Error(), "listen") {
		t.Errorf("fig1 with n=5: err = %v, want Check rejection", err)
	}
	err = runHub([]string{"-adversary", "fig1", "-n", "3", "-addr", badAddr})
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Errorf("fig1 with n=3: err = %v, want listen failure (accepted)", err)
	}
	// isolate's victim bound is checked against -n the same way.
	err = runHub([]string{"-adversary", "isolate:7", "-n", "5", "-addr", badAddr})
	if err == nil || strings.Contains(err.Error(), "listen") {
		t.Errorf("isolate:7 with n=5: err = %v, want Check rejection", err)
	}
}

func TestHubRejectsBadFlags(t *testing.T) {
	if err := runHub([]string{"-adversary", "bogus"}); err == nil {
		t.Error("bogus adversary accepted")
	}
	if err := runHub([]string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestHubEndToEnd drives the full hub CLI against real clients.
func TestHubEndToEnd(t *testing.T) {
	const addr = "127.0.0.1:17311"
	hubDone := make(chan error, 1)
	go func() {
		hubDone <- runHub([]string{"-n", "3", "-addr", addr, "-adversary", "rotating:1",
			"-timeout", "10s", "-randports"})
	}()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = runClientRetry(addr, float64(i)/2)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	select {
	case err := <-hubDone:
		if err != nil {
			t.Fatalf("hub: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hub did not finish")
	}
}

func runClientRetry(addr string, input float64) (*transport.ClientResult, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		res, err := transport.RunClient(addr, transport.ClientConfig{
			NewProcess: func(n, selfPort int) (core.Process, error) {
				return core.NewDAC(n, selfPort, input, 1e-2)
			},
			IOTimeout: 10 * time.Second,
		})
		if err == nil {
			return res, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return nil, lastErr
}

func TestHubRejectsBadListen(t *testing.T) {
	err := runHub([]string{"-addr", "256.256.256.256:99999", "-n", "1"})
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Errorf("err = %v, want listen failure", err)
	}
}

func TestProcessFactory(t *testing.T) {
	dac, err := processFactory("dac", 0, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dac(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value() != 0.5 {
		t.Errorf("DAC input = %g", p.Value())
	}

	dbac, err := processFactory("dbac", 1, 0.25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbac(6, 0); err != nil {
		t.Errorf("DBAC factory: %v", err)
	}
	// Resilience violations surface when the factory runs (the hub
	// tells the node n only at connect time).
	if _, err := dbac(5, 0); err == nil {
		t.Error("DBAC with n=5f accepted")
	}

	if _, err := processFactory("raft", 0, 0.5, 0.1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNodeRejectsBadFlags(t *testing.T) {
	if err := runNode([]string{"-algo", "bogus"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := runNode([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestNodeEndToEnd drives the node CLI against an in-process hub.
func TestNodeEndToEnd(t *testing.T) {
	hub, err := transport.NewHub("127.0.0.1:0", transport.HubConfig{
		N:         2,
		Adversary: adversary.NewComplete(),
		IOTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hubDone := make(chan error, 1)
	go func() {
		_, err := hub.Serve()
		hubDone <- err
	}()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, input := range []string{"0.2", "0.8"} {
		wg.Add(1)
		go func(i int, input string) {
			defer wg.Done()
			errs[i] = runNode([]string{"-addr", hub.Addr(), "-algo", "dac",
				"-input", input, "-eps", "0.01", "-timeout", "10s"})
		}(i, input)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
	select {
	case err := <-hubDone:
		if err != nil {
			t.Errorf("hub: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hub did not finish")
	}
}
