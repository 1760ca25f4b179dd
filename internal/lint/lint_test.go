// Package lint holds a static pass over the whole module, run by go test.
// It parses and type-checks every non-test package with go/parser and
// go/types, and the test files of each package that holds a checked
// Example, reading the standard library from source, so it needs no
// tool beyond the Go distribution. cmd/, examples/ and benchmark/ are
// checked too, and count as callers. Five rules:
//
//	(a) an exported package-level identifier outside package main has a
//	    use in non-test code or a checked Example;
//	(b) time.Now and time.Since appear only in the files that may read
//	    the wall clock, outside the determinism boundary;
//	(c) no int/uint field in a type that reaches a report or a wire
//	    frame, whose value range would differ between 32- and 64-bit hosts;
//	(d) no type assertion to a role interface in internal/sim;
//	(e) an exported method of a type outside package main has a use in
//	    non-test code, satisfies an interface the module declares or
//	    writes or a standard package it imports declares, or is called
//	    from a checked Example (the call as the type checker resolves it,
//	    so a method of the same name on another type is not credited).
//
// Every exception is an allowlist entry with a one-line reason, and an
// entry that names nothing fails the pass. The package has only _test.go
// files, so go build skips it.
package lint

import (
	"path/filepath"
	"testing"
	"time"
)

// moduleRules names the types and package that rules (c) and (d) check.
var moduleRules = rules{
	wireRoots: []string{
		"anondyn/internal/sim.Result",
		"anondyn.RunRecord",
		"anondyn/internal/metrics.RoundSample",
		"anondyn/internal/metrics.RunSample",
		"anondyn/internal/transport.ShardRecord",
	},
	noAssert: "anondyn/internal/sim",
}

// allow is every exception the module has, with its reason.
var allow = map[string]string{
	// (a) exported for the tests of other packages only.
	"(a) network.Ring":              "the directed cycle: a fixed test graph for the internal/adversary and internal/sim tests",
	"(a) network.NumberingFromPerm": "an explicit numbering: the internal/sim anonymity property conjugates every node's ports with it",
	"(a) specs.Names":               "lists the committed specs for the golden and load tests of internal/spec, internal/report, internal/experiments and internal/transport",
	"(a) metrics.SeriesSink":        "records every sample for the root package's metrics-parity tests",

	// (b) files outside the determinism boundary.
	"(b) benchmark/layers.go":                "the benchmark: per-layer wall time is what it measures",
	"(b) benchmark/measure.go":               "the benchmark: the end-to-end clock around each workload",
	"(b) benchmark/trace.go":                 "the benchmark: the decorators' round clock (ROADMAP item 2(b) moves it into the engine)",
	"(b) internal/metrics/metrics.go":        "the collector's epoch, read only into Snapshot.Timing",
	"(b) internal/shard/worker.go":           "socket deadlines that unblock a read when a worker leaves",
	"(b) internal/transport/client.go":       "socket I/O deadlines",
	"(b) internal/transport/controlplane.go": "socket I/O deadlines",
	"(b) internal/transport/hub.go":          "socket I/O deadlines",
	"(b) internal/transport/shard.go":        "socket I/O deadlines",

	// (c) ROADMAP item 1(a)'s worklist: word-sized fields that reach a
	// report or a wire frame. Message and byte totals grow with
	// n²·rounds and must become int64; the rest are bounded by a round
	// budget, a run count or n, and need an audit rather than a wider type.
	"(c) sim.Result.MessagesDelivered":  "item 1(a): message total, grows with n²·rounds",
	"(c) sim.Result.MessagesLost":       "item 1(a): message total, grows with n²·rounds (passes 2³¹ at n = 16 385 in round 9)",
	"(c) sim.Result.MessagesOversized":  "item 1(a): message total, grows with n²·rounds",
	"(c) sim.Result.BytesDelivered":     "item 1(a): byte total, grows with n²·rounds",
	"(c) sim.Result.Rounds":             "item 1(a): bounded by the round budget",
	"(c) sim.Result.DecideRound":        "item 1(a): node id → round, bounded by n and the round budget",
	"(c) sim.Result.Outputs":            "item 1(a): keyed by node id, bounded by n",
	"(c) sim.Result.Inputs":             "item 1(a): keyed by node id, bounded by n",
	"(c) sim.Result.FaultFree":          "item 1(a): node ids, bounded by n",
	"(c) anondyn.RunRecord.Bytes":       "item 1(a): Result.BytesDelivered, grows with n²·rounds",
	"(c) anondyn.RunRecord.Rounds":      "item 1(a): bounded by the round budget",
	"(c) transport.ShardRecord.Bytes":   "item 1(a): RunRecord.Bytes on the wire, grows with n²·rounds",
	"(c) transport.ShardRecord.Rounds":  "item 1(a): bounded by the round budget",
	"(c) transport.ShardRecord.Run":     "item 1(a): global run index, bounded by cells × seeds",
	"(c) metrics.RoundSample.Delivered": "item 1(a): per-round message count, grows with n²",
	"(c) metrics.RoundSample.Lost":      "item 1(a): per-round message count, grows with n²",
	"(c) metrics.RoundSample.Round":     "item 1(a): bounded by the round budget",
	"(c) metrics.RoundSample.Running":   "item 1(a): node count, bounded by n",
	"(c) metrics.RoundSample.Decided":   "item 1(a): node count, bounded by n",
	"(c) metrics.RunSample.Delivered":   "item 1(a): message total, grows with n²·rounds",
	"(c) metrics.RunSample.Lost":        "item 1(a): message total, grows with n²·rounds",
	"(c) metrics.RunSample.Rounds":      "item 1(a): bounded by the round budget",

	// (d) role type assertions still in internal/sim.
	"(d) internal/sim/engine.go .(adversary.InPlace)": "ROADMAP item 5: blocked until benchmark/ stops asserting adversary.InPlace (item 2(b))",

	// (e) methods the tests of other packages need.
	"(e) network.EdgeSet.Equal":       "compares generated graphs in the tests of the root package, internal/adversary, internal/sim and internal/chaos",
	"(e) network.EdgeSet.InDegree":    "checks the degree bounds of generated graphs in the internal/adversary tests",
	"(e) network.EdgeSet.OutDegree":   "checks the split construction's out-degrees in the internal/adversary tests",
	"(e) network.EdgeSet.ForEachEdge": "walks a round's links in the internal/sim prune tests and the internal/chaos filter tests",
	"(e) network.Numbering.N":         "the port-order oracle of internal/sim's delivery-equivalence tests",
	"(e) network.Numbering.Node":      "the port-order oracle of internal/sim's delivery-equivalence and reference-engine tests",
	"(e) rng.Source.Float64":          "the per-pair reference draw the internal/adversary er sampler test checks against",
	"(e) analysis.Table.Rows":         "reads table contents in internal/experiments' Shape tests",
	"(e) analysis.Table.Cell":         "reads table cells in internal/experiments' Shape tests",
}

func TestModule(t *testing.T) {
	start := time.Now()
	m, err := loadDir(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := run(m, moduleRules)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range m.pkgs {
		if p.types != nil {
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("type-checked only %d packages: is the module root two levels up?", checked)
	}
	open, bad := resolve(fs, allow)
	for _, f := range open {
		t.Errorf("%s: %s: %s", f.pos, f.key, f.msg)
	}
	for _, b := range bad {
		t.Error(b)
	}
	t.Logf("type-checked %d packages and applied rules (a)-(e) in %v", checked, time.Since(start).Round(time.Millisecond))
}
