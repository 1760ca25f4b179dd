package main

import (
	"os"
	"path/filepath"
	"testing"

	"anondyn"
	"anondyn/internal/trace"
)

// writeTestTrace records a small run and writes it as JSONL.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	rec := anondyn.NewRecorder()
	_, err := anondyn.Scenario{
		N: 5, F: 1, Eps: 0.01,
		Algorithm: anondyn.AlgoDAC,
		Inputs:    anondyn.SpreadInputs(5),
		Adversary: anondyn.Rotating(2),
		Crashes:   map[int]anondyn.Crash{1: anondyn.CrashAt(2)},
		Recorder:  rec,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceSummary(t *testing.T) {
	path := writeTestTrace(t)
	if err := runTrace([]string{"-n", "5", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestTraceEventDump(t *testing.T) {
	path := writeTestTrace(t)
	if out := stdoutOf(t, "trace", "-n", "5", "-events", path); len(out) == 0 {
		t.Error("-events printed nothing")
	}
}

func TestTraceValidation(t *testing.T) {
	path := writeTestTrace(t)
	if err := runTrace([]string{path}); err == nil {
		t.Error("missing -n accepted")
	}
	if err := runTrace([]string{"-n", "5"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := runTrace([]string{"-n", "5", "/does/not/exist.jsonl"}); err == nil {
		t.Error("missing file path accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTrace([]string{"-n", "5", empty}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestSummarize(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindRound, Round: 0},
		{Kind: trace.KindBroadcast, Round: 0, Node: 0},
		{Kind: trace.KindDeliver, Round: 0, Node: 1},
		{Kind: trace.KindPhase, Round: 0, Node: 1, Phase: 1},
		{Kind: trace.KindCrash, Round: 1, Node: 2},
		{Kind: trace.KindDecide, Round: 3, Node: 1, Value: 0.5},
		{Kind: trace.KindDecide, Round: 5, Node: 0, Value: 0.5},
	}
	s := summarize(events)
	if s.rounds != 1 || s.broadcasts != 1 || s.deliveries != 1 || s.phases != 1 {
		t.Errorf("summary = %+v", s)
	}
	if len(s.crashes) != 1 || s.crashes[0] != 2 {
		t.Errorf("crashes = %v", s.crashes)
	}
	if len(s.decides) != 2 || s.firstDecide != 3 || s.lastDecide != 5 {
		t.Errorf("decides = %v first %d last %d", s.decides, s.firstDecide, s.lastDecide)
	}
}
