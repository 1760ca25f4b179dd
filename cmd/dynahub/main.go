// Command dynahub runs the round coordinator for a distributed
// execution: it stands in for the broadcast medium of §II-A, collecting
// every node's per-round broadcast, applying a configurable message
// adversary (the lab's radio environment), and delivering messages
// tagged with receiver-local ports.
//
// The -adversary grammar is the registry shared with dynabench and
// dynasim (anondyn.ParseAdversaryFactory): symbolic degrees
// (crashdeg/byzdeg, resolved against -n/-f), pinned seeds, and every
// registered adversary work identically in live runs and sweeps.
//
// Start a hub, then n dynanode processes:
//
//	dynahub  -n 5 -addr 127.0.0.1:7000 -adversary rotating:2
//	dynahub  -n 7 -adversary er:0.4,42 -f 3
//	dynanode -addr 127.0.0.1:7000 -input 0.2   # × 5, one per node
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"anondyn"
	"anondyn/internal/metrics"
	"anondyn/internal/network"
	"anondyn/internal/rng"
	"anondyn/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynahub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dynahub", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 5, "number of nodes to wait for")
		f          = fs.Int("f", 0, "fault bound for symbolic adversary degrees (crashdeg/byzdeg)")
		addr       = fs.String("addr", "127.0.0.1:7000", "listen address")
		advSpec    = fs.String("adversary", "complete", "adversary (complete | halves | chasemin | fig1 | isolate:<v> | rotating:<d> | clustered:<T> | starve:<d> | er:<p>[,<seed>] | random:<B>,<D>[,<extra>[,<seed>]] | starveperiod:<T>; degrees accept crashdeg/byzdeg) — the grammar shared with dynabench/dynasim")
		maxRounds  = fs.Int("rounds", 10000, "round budget")
		seed       = fs.Int64("seed", 1, "seed for randomized adversaries / ports")
		randPorts  = fs.Bool("randports", false, "random per-node port numberings")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-node I/O timeout")
		metricsOut = fs.String("metrics", "", "stream live per-round metrics snapshots as NDJSON to this file or host:port address")
	)
	if err := fs.Parse(args); err != nil {
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
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
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
