package spec

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"anondyn"
)

const stressYAML = `
name: storm-test
description: stress section coverage
epss: [1e-3]
algorithms: [dac]
adversaries: [complete]
seeds_per_cell: 2
unchecked: true
stress:
  fleet:
    total_nodes: 40
    groups: 4
    templates:
      - name: worker
        weight: 3
        input: random
      - name: beacon
        weight: 1
        input: "value:0.5"
  seed: 9
  rounds: 80
  events:
    - kind: crash
      round: 3
      count: 2
      mode: silent
    - kind: partition
      round: 6
      duration: 4
      groups: [1]
    - kind: starve
      round: 12
      duration: 5
      rate: 0.25
  assertions:
    - converged
    - agreement
    - max_rounds: 80
    - survivors: ">= n/2"
`

// TestParseStress: the stress section decodes field for field.
func TestParseStress(t *testing.T) {
	sw, err := Parse([]byte(stressYAML))
	if err != nil {
		t.Fatal(err)
	}
	st := sw.Stress
	if st == nil {
		t.Fatal("stress section dropped")
	}
	if st.Fleet.TotalNodes != 40 || st.Fleet.Groups != 4 {
		t.Errorf("fleet = %+v", st.Fleet)
	}
	if len(st.Fleet.Templates) != 2 || st.Fleet.Templates[0].Weight != 3 || st.Fleet.Templates[1].Input != "value:0.5" {
		t.Errorf("templates = %+v", st.Fleet.Templates)
	}
	if st.Seed != 9 || st.Rounds != 80 {
		t.Errorf("seed %d rounds %d", st.Seed, st.Rounds)
	}
	if len(st.Events) != 3 || st.Events[1].Kind != "partition" || !reflect.DeepEqual(st.Events[1].Groups, []int{1}) {
		t.Errorf("events = %+v", st.Events)
	}
	if st.Events[2].Rate != 0.25 {
		t.Errorf("starve rate = %g", st.Events[2].Rate)
	}
	wantAsserts := []string{"converged", "agreement", "max_rounds <= 80", "survivors >= n/2"}
	for i, a := range st.Assertions {
		if a.Name() != wantAsserts[i] {
			t.Errorf("assertion %d = %q, want %q", i, a.Name(), wantAsserts[i])
		}
	}
}

// TestTemplateWeightDefault: a template without a weight key draws
// with weight 1.
func TestTemplateWeightDefault(t *testing.T) {
	sw, err := Parse([]byte("name: x\nstress:\n  fleet:\n    total_nodes: 10\n    templates:\n      - name: a\n      - name: b\n        weight: 3\n  rounds: 5"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Stress.Fleet.Templates; got[0].Weight != 1 || got[1].Weight != 3 {
		t.Errorf("templates = %+v, want weights 1 and 3", got)
	}
}

// TestStressCompile: the stress grid carries the fleet size, the round
// budget and a Mutate that installs the storm; two compiles of the
// same run assemble identical scenarios.
func TestStressCompile(t *testing.T) {
	sw, g, err := Compile([]byte(stressYAML), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Ns; len(got) != 1 || got[0] != 40 {
		t.Errorf("grid ns = %v, want [40]", got)
	}
	if g.MaxRounds != 80 {
		t.Errorf("grid max rounds = %d, want 80", g.MaxRounds)
	}
	cells := g.Cells()
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	if g.Mutate == nil || g.Inputs == nil {
		t.Fatal("stress compile left Mutate/Inputs unset")
	}
	st := sw.Stress.CompileStorm(sw.BaseSeed)
	if len(st.Crashes) != 2 {
		t.Errorf("first run crashes %d nodes, want 2", len(st.Crashes))
	}

	// The timeline the report embeds is the first run's.
	tl := sw.StormTimeline()
	if len(tl) != 3 || tl[0].Kind != "crash" {
		t.Errorf("timeline = %+v", tl)
	}
}

// TestStressRoundTrip: Encode renders the stress section back to YAML
// that parses to the identical block.
func TestStressRoundTrip(t *testing.T) {
	sw, err := Parse([]byte(stressYAML))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(sw.Encode())
	if err != nil {
		t.Fatalf("re-parse of encoded spec: %v\n%s", err, sw.Encode())
	}
	if !reflect.DeepEqual(sw.Stress, again.Stress) {
		t.Errorf("stress block changed across encode/parse:\nfirst  %+v\nsecond %+v", sw.Stress, again.Stress)
	}
}

// TestStressErrorsCiteKeys: malformed stress specs fail with the
// offending key in the error.
func TestStressErrorsCiteKeys(t *testing.T) {
	cases := []struct {
		name, yaml, wantKey string
	}{
		{
			"unknown stress key",
			"name: x\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n  intensity: 3\n",
			"stress.intensity",
		},
		{
			"unknown fleet key",
			"name: x\nstress:\n  fleet:\n    total_nodes: 10\n    zones: 2\n  rounds: 5\n",
			"stress.fleet.zones",
		},
		{
			"unknown event key",
			"name: x\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n  events:\n    - kind: crash\n      round: 1\n      count: 1\n      blast: 4\n",
			"stress.events[0].blast",
		},
		{
			"missing fleet",
			"name: x\nstress:\n  rounds: 5\n",
			"stress.fleet",
		},
		{
			"bad assertion mapping",
			"name: x\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n  assertions:\n    - quorum: 3\n",
			"stress.assertions[0]",
		},
		{
			"ns conflicts with stress",
			"name: x\nns: [5]\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n",
			"ns",
		},
		{
			"max_rounds conflicts with stress",
			"name: x\nmax_rounds: 100\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n",
			"max_rounds",
		},
		{
			"crashes conflict with stress",
			"name: x\ncrashes:\n  count: 1\nstress:\n  fleet:\n    total_nodes: 10\n  rounds: 5\n",
			"crashes",
		},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.yaml))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantKey) {
			t.Errorf("%s: error %q does not cite %s", tc.name, err, tc.wantKey)
		}
	}
}

// TestVerdictsNilWithoutStress: ordinary sweeps carry no verdict block.
func TestVerdictsNilWithoutStress(t *testing.T) {
	sw, err := Parse([]byte("name: plain\nns: [5]\n"))
	if err != nil {
		t.Fatal(err)
	}
	if vs := sw.Verdicts([]anondyn.CellResult{{N: 5}}); vs != nil {
		t.Errorf("plain sweep produced verdicts: %+v", vs)
	}
	if tl := sw.StormTimeline(); tl != nil {
		t.Errorf("plain sweep produced a storm timeline: %+v", tl)
	}
}

// TestStressRunEndToEnd: a tiny storm sweep runs through the Grid and
// its verdicts evaluate — twice, byte-identically.
func TestStressRunEndToEnd(t *testing.T) {
	run := func() ([]anondyn.CellResult, string) {
		sw, g, err := Compile([]byte(stressYAML), 0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := g.Run(anondyn.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, v := range sw.Verdicts(rows) {
			b.WriteString(v.Assertion + "=" + v.Detail + "\n")
		}
		return rows, b.String()
	}
	rowsA, verdictsA := run()
	rowsB, verdictsB := run()
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Error("same-seed storm runs produced different rows")
	}
	if verdictsA != verdictsB {
		t.Errorf("same-seed storm runs produced different verdicts:\n%s\nvs\n%s", verdictsA, verdictsB)
	}
	if len(verdictsA) == 0 {
		t.Error("storm run produced no verdicts")
	}
}

// stormSpec is a 100-node storm with a 5-round budget around one event.
func stormSpec(event string) []byte {
	return []byte(`name: storm-duration
epss: [1e-3]
algorithms: [dac]
adversaries: [complete]
seeds_per_cell: 1
unchecked: true
stress:
  fleet:
    total_nodes: 100
  rounds: 5
  events:
    - ` + strings.ReplaceAll(strings.TrimSpace(event), "\n", "\n      ") + "\n")
}

// TestStormEventsEndWithinDuration: an event whose last active round
// falls past stress.rounds is a Grid error that names the overshooting
// key, raised before any storm compiles. The 3 000 000-wave cascade
// once cost seconds and gigabytes on every run of every worker it was
// submitted to; it must now be rejected in well under 100 ms. Events
// that end exactly at the budget still compile, and so does every
// committed spec.
func TestStormEventsEndWithinDuration(t *testing.T) {
	for _, tc := range []struct{ event, key string }{
		{"kind: cascade\nround: 1\ncount: 1\nwaves: 3000000\nspread: 1", "stress.events[0].waves"},
		{"kind: cascade\nround: 2\ncount: 1\nwaves: 3\nspread: 2", "stress.events[0].waves"},
		{"kind: crash-storm\nround: 1\nduration: 3000000\nrate: 0.01", "stress.events[0].duration"},
		{"kind: starve\nround: 3\nduration: 4\nrate: 0.1", "stress.events[0].duration"},
		{"kind: crash\nround: 6\ncount: 1", "stress.events[0].round"},
	} {
		data := stormSpec(tc.event)
		if _, err := Parse(data); err != nil {
			t.Fatalf("%s: Parse rejected the spec (the bound belongs to Grid): %v", tc.key, err)
		}
		start := time.Now()
		_, _, err := Compile(data, 0)
		elapsed := time.Since(start)
		if err == nil || !strings.HasPrefix(err.Error(), tc.key+":") {
			t.Errorf("%q: err = %v, want an error citing %s", tc.event, err, tc.key)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("%q: rejected after %v, want under 100ms", tc.event, elapsed)
		}
	}
	for _, event := range []string{
		"kind: cascade\nround: 1\ncount: 1\nwaves: 3\nspread: 2",
		"kind: starve\nround: 3\nduration: 3\nrate: 0.1",
		"kind: crash\nround: 5\ncount: 1",
	} {
		if _, _, err := Compile(stormSpec(event), 0); err != nil {
			t.Errorf("%q ends at the budget and must compile: %v", event, err)
		}
	}
	for name, data := range committedSpecs(t) {
		if _, _, err := Compile(data, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
