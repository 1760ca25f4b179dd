package main

// dyna hub runs the round coordinator for a distributed execution: it
// stands in for the broadcast medium of §II-A, collecting every node's
// per-round broadcast, applying a configurable message adversary (the
// lab's radio environment), and delivering messages tagged with
// receiver-local ports.
//
// The -adversary grammar is the registry shared with dyna sweep and
// dyna run (anondyn.ParseAdversaryFactory): symbolic degrees
// (crashdeg/byzdeg, resolved against -n/-f), pinned seeds, and every
// registered adversary work identically in live runs and sweeps.
//
// Start a hub, then n dyna node processes:
//
//	dyna hub  -n 5 -addr 127.0.0.1:7000 -adversary rotating:2
//	dyna hub  -n 7 -adversary er:0.4,42 -f 3
//	dyna node -addr 127.0.0.1:7000 -input 0.2   # × 5, one per node
//
// dyna node runs one consensus node against a hub. The node learns
// only the network size and its own local port from the hub — it is
// anonymous end to end, exactly as the model prescribes.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"anondyn"
	"anondyn/internal/core"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/rng"
	"anondyn/internal/transport"
)

func runHub(args []string) error {
	fs := newFlagSet("hub", "")
	var (
		n          = fs.Int("n", 5, "number of nodes to wait for")
		f          = fs.Int("f", 0, "fault bound for symbolic adversary degrees (crashdeg/byzdeg)")
		addr       = fs.String("addr", "127.0.0.1:7000", "listen address")
		advSpec    = fs.String("adversary", "complete", "adversary (complete | halves | chasemin | fig1 | isolate:<v> | rotating:<d> | clustered:<T> | starve:<d> | er:<p>[,<seed>] | random:<B>,<D>[,<extra>[,<seed>]] | starveperiod:<T>; degrees accept crashdeg/byzdeg) — the grammar shared with dyna sweep/run")
		maxRounds  = fs.Int("rounds", 10000, "round budget")
		seed       = fs.Int64("seed", 1, "seed for randomized adversaries / ports")
		randPorts  = fs.Bool("randports", false, "random per-node port numberings")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-node I/O timeout")
		metricsOut = fs.String("metrics", "", "stream live per-round metrics snapshots as NDJSON to this file or host:port address")
	)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	coll, closeMetrics, err := metrics.Start(*metricsOut, 0)
	if err != nil {
		return err
	}
	defer closeMetrics() //nolint:errcheck // final snapshot write; fate shared with stdout
	// The live hub resolves its adversary through the same registry as
	// the sweep CLIs and the spec files — one grammar everywhere.
	factory, err := anondyn.ParseAdversaryFactory(*advSpec)
	if err != nil {
		return err
	}
	cell := anondyn.Cell{N: *n, F: *f}
	if factory.Check != nil {
		if err := factory.Check(cell); err != nil {
			return fmt.Errorf("adversary %q: %w", *advSpec, err)
		}
	}
	adv := factory.New(cell, *seed)
	var ports network.Ports
	if *randPorts {
		ports = network.RandomPorts(*n, rand.New(rng.New(*seed)))
	}
	cfg := transport.HubConfig{
		N:         *n,
		Adversary: adv,
		Ports:     ports,
		MaxRounds: *maxRounds,
		IOTimeout: *timeout,
		Log:       stderrLog,
	}
	if coll != nil {
		cfg.Metrics = coll
	}
	hub, err := transport.NewHub(*addr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("hub listening on %s, waiting for %d nodes (adversary %s)\n", hub.Addr(), *n, adv.Name())
	res, err := hub.Serve()
	if err != nil {
		return err
	}
	fmt.Printf("execution finished: rounds=%d, all decided=%v\n", res.Rounds, res.Decided)
	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  node %d decided %.8f in round %d\n", id, res.Outputs[id], res.DecideRound[id])
	}
	if len(res.Trace) > 0 {
		ff := make([]int, *n)
		for i := range ff {
			ff[i] = i
		}
		fmt.Printf("trace provided (1,D)-dynaDegree with D=%d\n", anondyn.MaxDynaDegree(res.Trace, ff, 1))
	}
	return nil
}

func runNode(args []string) error {
	fs := newFlagSet("node", "")
	var (
		addr    = fs.String("addr", "127.0.0.1:7000", "hub address")
		algo    = fs.String("algo", "dac", "algorithm: dac | dbac")
		input   = fs.Float64("input", 0.5, "initial value in [0,1]")
		eps     = fs.Float64("eps", 1e-3, "ε of ε-agreement")
		f       = fs.Int("f", 0, "fault bound (dbac)")
		timeout = fs.Duration("timeout", 30*time.Second, "I/O timeout")
	)
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	factory, err := processFactory(*algo, *f, *input, *eps)
	if err != nil {
		return err
	}
	res, err := transport.RunClient(*addr, transport.ClientConfig{
		NewProcess: factory,
		IOTimeout:  *timeout,
	})
	if err != nil {
		return err
	}
	if !res.Decided {
		return fmt.Errorf("execution ended after %d rounds without a decision", res.Rounds)
	}
	fmt.Printf("decided %.8f after %d rounds (n=%d, my port %d)\n",
		res.Output, res.Rounds, res.N, res.SelfPort)
	return nil
}

func processFactory(algo string, f int, input, eps float64) (func(n, selfPort int) (core.Process, error), error) {
	switch algo {
	case "dac":
		return func(n, selfPort int) (core.Process, error) {
			return core.NewDAC(n, selfPort, input, eps)
		}, nil
	case "dbac":
		return func(n, selfPort int) (core.Process, error) {
			return core.NewDBAC(n, f, selfPort, input, eps)
		}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}
