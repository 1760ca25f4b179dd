package chaos

import (
	"reflect"
	"sort"
	"testing"
)

// TestCompileStormDeterministic: a storm is a pure function of
// (stress block, run seed) — identical on replay, different across run
// seeds.
func TestCompileStormDeterministic(t *testing.T) {
	s := validStress()
	a, b := s.CompileStorm(17), s.CompileStorm(17)
	if !reflect.DeepEqual(a.Crashes, b.Crashes) || !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Fatal("same run seed compiled different storms")
	}
	if a.Survivors != b.Survivors {
		t.Fatalf("survivors %d vs %d on replay", a.Survivors, b.Survivors)
	}
	c := s.CompileStorm(18)
	if reflect.DeepEqual(a.Crashes, c.Crashes) {
		t.Error("different run seeds drew identical crash schedules")
	}
}

// TestCompileStormBookkeeping: victim sets never overlap, survivors
// count the unfaulted remainder, and the timeline is round-sorted.
func TestCompileStormBookkeeping(t *testing.T) {
	s := validStress()
	st := s.CompileStorm(5)
	n := s.Fleet.TotalNodes
	for node := range st.Crashes {
		if _, both := st.Byzantine[node]; both {
			t.Errorf("node %d is both crashed and Byzantine", node)
		}
	}
	if want := n - len(st.Crashes) - len(st.Byzantine); st.Survivors != want {
		t.Errorf("survivors = %d, want %d", st.Survivors, want)
	}
	if !sort.SliceIsSorted(st.Timeline, func(i, j int) bool { return st.Timeline[i].Round < st.Timeline[j].Round }) {
		t.Error("timeline not in round order")
	}
	if len(st.cuts) != 1 || len(st.starves) != 1 {
		t.Errorf("connectivity windows: %d cuts, %d starves, want 1 each", len(st.cuts), len(st.starves))
	}
}

// TestCascadeWaves: wave sizes follow count·factor^w and waves land
// spread rounds apart; a lethal cascade leaves the documented
// survivor count.
func TestCascadeWaves(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 10000},
		Rounds: 60,
		Events: []Event{{Kind: "cascade", Round: 5, Count: 500, Waves: 4, Factor: 2, Spread: 6, Mode: "silent"}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(0)
	wantWaves := []struct{ round, nodes int }{{5, 500}, {11, 1000}, {17, 2000}, {23, 4000}}
	if len(st.Timeline) != len(wantWaves) {
		t.Fatalf("timeline has %d entries, want %d", len(st.Timeline), len(wantWaves))
	}
	for i, want := range wantWaves {
		e := st.Timeline[i]
		if e.Round != want.round || e.Nodes != want.nodes {
			t.Errorf("wave %d: round %d nodes %d, want round %d nodes %d", i, e.Round, e.Nodes, want.round, want.nodes)
		}
	}
	if st.Survivors != 10000-7500 {
		t.Errorf("survivors = %d, want 2500", st.Survivors)
	}
}

// TestCascadeSaturates: a cascade that outgrows the fleet keeps taking
// every survivor instead of overflowing its wave size (64 doublings
// used to wrap to a negative count and panic).
func TestCascadeSaturates(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 40},
		Rounds: 5,
		Events: []Event{{Kind: "cascade", Round: 1, Count: 1, Waves: 80, Spread: 1}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(3)
	if len(st.Timeline) != 80 || st.Survivors != 0 {
		t.Errorf("%d waves, %d survivors; want 80 waves, 0 survivors", len(st.Timeline), st.Survivors)
	}
}

// TestGroupOutageContiguity: an outage crashes exactly the members of
// the drawn contiguous group blocks, nobody else.
func TestGroupOutageContiguity(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 100, Groups: 10},
		Rounds: 50,
		Events: []Event{{Kind: "group-outage", Round: 4, Groups: []int{2, 7}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(1)
	if len(st.Crashes) != 20 {
		t.Fatalf("outage crashed %d nodes, want 20 (two blocks of 10)", len(st.Crashes))
	}
	for node := range st.Crashes {
		g := node / 10
		if g != 2 && g != 7 {
			t.Errorf("node %d (group %d) crashed outside the victim groups", node, g)
		}
	}
}

// TestPickNodesExhaustion: asking for more victims than remain yields
// everyone, and later events see earlier events' victims as faulted.
func TestPickNodesExhaustion(t *testing.T) {
	s := &Stress{
		Fleet:  Fleet{TotalNodes: 10},
		Rounds: 20,
		Events: []Event{
			{Kind: "crash", Round: 1, Count: 8},
			{Kind: "crash", Round: 2, Count: 8},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.CompileStorm(0)
	if len(st.Crashes) != 10 {
		t.Fatalf("crashed %d of 10", len(st.Crashes))
	}
	if st.Timeline[1].Nodes != 2 {
		t.Errorf("second crash event claimed %d victims, want the 2 remaining", st.Timeline[1].Nodes)
	}
	if st.Survivors != 0 {
		t.Errorf("survivors = %d, want 0", st.Survivors)
	}
}
