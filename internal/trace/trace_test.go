package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindRound, Round: 0, Edges: [][2]int{{0, 1}, {1, 2}}},
		{Kind: KindBroadcast, Round: 0, Node: 0, Value: 0.5, Phase: 0},
		{Kind: KindDeliver, Round: 0, Node: 1, Port: 0, Value: 0.5, Phase: 0},
		{Kind: KindPhase, Round: 0, Node: 1, FromPhase: 0, Phase: 1, Value: 0.25},
		{Kind: KindCrash, Round: 1, Node: 2},
		{Kind: KindDecide, Round: 3, Node: 1, Value: 0.25},
	}
}

func TestRecorderKeepsAll(t *testing.T) {
	r := NewRecorder()
	for _, e := range sampleEvents() {
		r.Record(e)
	}
	if r.Len() != len(sampleEvents()) {
		t.Errorf("Len = %d, want %d", r.Len(), len(sampleEvents()))
	}
	if !reflect.DeepEqual(r.Events(), sampleEvents()) {
		t.Error("recorded events differ")
	}
}

func TestRoundEvents(t *testing.T) {
	r := NewRecorder()
	for _, e := range sampleEvents() {
		r.Record(e)
	}
	rounds := r.RoundEvents()
	if len(rounds) != 1 || rounds[0].Round != 0 {
		t.Errorf("RoundEvents = %v", rounds)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	// One line per event.
	if got := strings.Count(buf.String(), "\n"); got != len(sampleEvents()) {
		t.Errorf("lines = %d, want %d", got, len(sampleEvents()))
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sampleEvents()) {
		t.Errorf("round trip mismatch:\nwrote %v\nread  %v", sampleEvents(), back)
	}
}

func TestReadJSONLCorrupt(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"round"}` + "\n{bogus\n")); err == nil {
		t.Error("corrupt stream accepted")
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	events, err := ReadJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("events = %v, want none", events)
	}
}

func TestDescribeCoversKinds(t *testing.T) {
	for _, e := range sampleEvents() {
		s := Describe(e)
		if s == "" {
			t.Errorf("empty description for %q", e.Kind)
		}
		if !strings.Contains(s, "r000") {
			t.Errorf("description %q missing round marker", s)
		}
	}
	if s := Describe(Event{Kind: Kind("custom"), Round: 2}); !strings.Contains(s, "custom") {
		t.Errorf("unknown kind description %q", s)
	}
}

// RoundEvents extracts just the per-round edge sets, in round order.
func (r *Recorder) RoundEvents() []Event {
	var rounds []Event
	for _, e := range r.events {
		if e.Kind == KindRound {
			rounds = append(rounds, e)
		}
	}
	return rounds
}
