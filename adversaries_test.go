package anondyn_test

import (
	"strings"
	"testing"

	"anondyn"
	"anondyn/internal/adversary"
)

func TestFacadeAdversaryConstructors(t *testing.T) {
	cases := []struct {
		name string
		adv  anondyn.Adversary
	}{
		{"complete", anondyn.Complete()},
		{"fig1", anondyn.Fig1()},
		{"rotating", anondyn.Rotating(2)},
		{"randomDegree", anondyn.RandomDegree(2, 3, 0.1, 1)},
		{"halves", anondyn.Halves(6)},
		{"clustered", anondyn.Clustered(3)},
		{"starve", anondyn.Starve(2)},
		{"isolate", anondyn.Isolate(0)},
		{"chaseMin", anondyn.ChaseMin()},
		{"probabilistic", anondyn.Probabilistic(0.5, 1)},
		{"periodic", anondyn.Periodic("p", anondyn.CompleteGraph(4), anondyn.NewEdgeSet(4))},
	}
	for _, tc := range cases {
		if tc.adv == nil {
			t.Errorf("%s: nil adversary", tc.name)
			continue
		}
		if tc.adv.Name() == "" {
			t.Errorf("%s: empty name", tc.name)
		}
	}
}

func TestFacadeConstructorsPanicOnBadArgs(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"rotating(0)", func() { anondyn.Rotating(0) }},
		{"randomDegree(block=0)", func() { anondyn.RandomDegree(0, 1, 0, 1) }},
		{"halves(1)", func() { anondyn.Halves(1) }},
		{"clustered(0)", func() { anondyn.Clustered(0) }},
		{"starve(0)", func() { anondyn.Starve(0) }},
		{"isolate(-1)", func() { anondyn.Isolate(-1) }},
		{"probabilistic(2)", func() { anondyn.Probabilistic(2, 1) }},
		{"periodic empty", func() { anondyn.Periodic("x") }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestFacadeGraphHelpers(t *testing.T) {
	if g := anondyn.CompleteGraph(5); g.Len() != 20 {
		t.Errorf("CompleteGraph(5) has %d edges", g.Len())
	}
	g := anondyn.NewEdgeSet(3)
	g.Add(0, 1)
	if !g.Has(0, 1) {
		t.Error("NewEdgeSet broken")
	}
}

func TestFacadeStrategies(t *testing.T) {
	for _, s := range []anondyn.Strategy{
		anondyn.Silent(), anondyn.Extremist(1), anondyn.Equivocator(0, 1),
		anondyn.SplitBrain(func(int) bool { return true }, 0, 1),
		anondyn.RandomNoise(1), anondyn.Laggard(0.5), anondyn.Mimic(0),
	} {
		if s == nil || s.Name() == "" {
			t.Errorf("bad strategy %v", s)
		}
	}
}

func TestFacadeByzSplit(t *testing.T) {
	bs, err := anondyn.NewByzSplit(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Degree() != 11 {
		t.Errorf("Degree = %d, want 11", bs.Degree())
	}
	if len(bs.Byzantine()) != 3 {
		t.Errorf("Byzantine count = %d", len(bs.Byzantine()))
	}
	inputs := bs.Inputs()
	if len(inputs) != 16 || inputs[0] != 0 || inputs[15] != 1 {
		t.Errorf("Inputs = %v", inputs)
	}
	if len(bs.AReceivers()) == 0 || len(bs.BReceivers()) == 0 {
		t.Error("receiver groups empty")
	}
	if !strings.Contains(bs.Adversary().Name(), "byzSplit") {
		t.Errorf("adversary name = %q", bs.Adversary().Name())
	}
	if _, err := anondyn.NewByzSplit(3, 1); err == nil {
		t.Error("n < 3f+1 accepted")
	}
}

func TestFacadeDynaDegreeHelpers(t *testing.T) {
	tr := anondyn.Trace{anondyn.CompleteGraph(4), anondyn.NewEdgeSet(4)}
	ff := []int{0, 1, 2, 3}
	if got := anondyn.MaxDynaDegree(tr, ff, 2); got != 3 {
		t.Errorf("MaxDynaDegree(T=2) = %d, want 3", got)
	}
	if got := anondyn.MaxDynaDegree(tr, ff, 1); got != 0 {
		t.Errorf("MaxDynaDegree(T=1) = %d, want 0 (empty round)", got)
	}
	if got := anondyn.MinTForDegree(tr, ff, 3); got != 2 {
		t.Errorf("MinTForDegree = %d", got)
	}
}

func TestScenarioFloodMin(t *testing.T) {
	res, err := anondyn.Scenario{
		N:         5,
		Algorithm: anondyn.AlgoFloodMin,
		Inputs:    anondyn.SplitInputs(5, 1),
		Adversary: anondyn.Complete(),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.OutputRange() != 0 {
		t.Errorf("decided=%v range=%g", res.Decided, res.OutputRange())
	}
	for _, v := range res.Outputs {
		if v != 0 {
			t.Errorf("output %g, want the global min 0", v)
		}
	}
}

// TestParseAdversaryFactory pins the registry grammar every sweep
// surface (CLI flags, spec files) resolves through.
func TestParseAdversaryFactory(t *testing.T) {
	cell := anondyn.Cell{N: 9, F: 2}
	cases := []struct {
		spec string
		want string // adversary Name() substring
	}{
		{"complete", "complete"},
		{"halves", "split"},
		{"chasemin", "chaseMin"},
		{"rotating:3", "rotating(d=3)"},
		{"rotating:crashdeg", "rotating(d=4)"}, // ⌊9/2⌋
		{"starve:byzdeg", "starve(d=7)"},       // ⌊(9+6)/2⌋
		{"clustered:4", "clustered(T=4)"},
		{"er:0.25", "er(p=0.25)"},
		{"random:4,crashdeg,0.05", "randomDegree(B=4,D=4"},
		{"random:2,3", "randomDegree(B=2,D=3,extra=0.05)"},
		{"isolate:2", "isolate(2)"},
		{"starveperiod:4", "periodic"},
	}
	for _, tc := range cases {
		f, err := anondyn.ParseAdversaryFactory(tc.spec)
		if err != nil {
			t.Errorf("ParseAdversaryFactory(%q): %v", tc.spec, err)
			continue
		}
		if f.Name != tc.spec {
			t.Errorf("factory name = %q, want the spec %q", f.Name, tc.spec)
		}
		if got := f.New(cell, 1).Name(); !strings.Contains(got, tc.want) {
			t.Errorf("%q built %q, want *%q*", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{"", "warp", "rotating:x", "random:1", "er:zz",
		"complete:3", "starveperiod:0", "random:1,2,3,4,5", "er:1.5", "er2:-0.1",
		"clustered:0", "random:0,2", "random:1,2,2"} {
		if _, err := anondyn.ParseAdversaryFactory(bad); err == nil {
			t.Errorf("ParseAdversaryFactory(%q) accepted", bad)
		}
	}
}

// TestFactoryPinnedSeeds: an explicit seed argument decouples the
// adversary stream from the run seed.
func TestFactoryPinnedSeeds(t *testing.T) {
	trace := func(spec string, seed int64) []*anondyn.EdgeSet {
		t.Helper()
		f, err := anondyn.ParseAdversaryFactory(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := anondyn.Scenario{
			N: 5, Eps: 1e-3,
			Algorithm: anondyn.AlgoDAC,
			Inputs:    anondyn.SpreadInputs(5),
			Adversary: f.New(anondyn.Cell{N: 5}, seed),
			KeepTrace: true,
			MaxRounds: 10000,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	equalTraces := func(a, b []*anondyn.EdgeSet) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if !equalTraces(trace("er:0.5,77", 1), trace("er:0.5,77", 2)) {
		t.Error("pinned-seed factory drew different streams for different run seeds")
	}
	if equalTraces(trace("er:0.5", 1), trace("er:0.5", 2)) {
		t.Error("run-seeded factory drew identical streams for different run seeds")
	}
}

// TestRegisterAdversaryFactory: third-party registrations resolve and
// duplicates are rejected loudly.
func TestRegisterAdversaryFactory(t *testing.T) {
	anondyn.RegisterAdversaryFactory(testFactoryName, func(arg string) (anondyn.AdversaryFactory, error) {
		return anondyn.AdversaryFactory{New: func(c anondyn.Cell, _ int64) anondyn.Adversary {
			return anondyn.Periodic("testring", anondyn.CompleteGraph(c.N))
		}}, nil
	})
	f, err := anondyn.ParseAdversaryFactory(testFactoryName)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.New(anondyn.Cell{N: 4}, 0).Name(); !strings.Contains(got, "testring") {
		t.Errorf("custom factory built %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	anondyn.RegisterAdversaryFactory("complete", nil)
}

// testFactoryName is the factory TestRegisterAdversaryFactory registers.
const testFactoryName = "testring"

// TestFactoryRenewalContract: for every form of every registered
// factory whose product is a Reseeder, New(c, s₁) with s₁'s stream
// partly drawn and then Reseed(s₂) renders the same first 16 rounds as
// New(c, s₂) — the contract Grid.RunSlice relies on when it renews a
// worker's adversary instead of building a new one. Fixed-seed forms
// must keep it too: their product ignores s₂ on Reseed, as New does.
func TestFactoryRenewalContract(t *testing.T) {
	forms := []struct {
		spec     string
		n        int
		reseeder bool // the product must be a Reseeder
	}{
		{"complete", 9, false},
		{"halves", 9, false},
		{"chasemin", 9, false},
		{"fig1", 3, false},
		{"isolate:2", 9, false},
		{"rotating:crashdeg", 9, false},
		{"starve:byzdeg", 9, false},
		{"clustered:4", 9, false},
		{"er:0.3", 9, true},
		{"er:0.3,77", 9, true},
		{"er:0.3", 70, true},
		{"er2:0.3", 9, true},
		{"er2:0.3,77", 9, true},
		{"random:2,3", 9, true},
		{"random:3,byzdeg,0.1", 9, true},
		{"random:3,byzdeg,0.1,2024", 9, true},
		{"starveperiod:4", 9, false},
	}
	covered := map[string]bool{testFactoryName: true}
	for _, form := range forms {
		name, _, _ := strings.Cut(form.spec, ":")
		covered[name] = true
		f, err := anondyn.ParseAdversaryFactory(form.spec)
		if err != nil {
			t.Fatal(err)
		}
		cell := anondyn.Cell{N: form.n, F: 2}
		if form.n == 3 {
			cell.F = 0
		}
		const rounds = 16
		for _, seeds := range [][2]int64{{11, 12}, {12, 11}, {5, 5}, {-3, 1 << 40}} {
			renewed := f.New(cell, seeds[0])
			r, ok := renewed.(anondyn.AdversaryReseeder)
			if ok != form.reseeder {
				t.Fatalf("%s: product is a Reseeder: %v, want %v", form.spec, ok, form.reseeder)
			}
			if !ok {
				break
			}
			render(renewed, form.n, 5) // draw part of s₁'s stream
			r.Reseed(seeds[1])
			got := render(renewed, form.n, rounds)
			want := render(f.New(cell, seeds[1]), form.n, rounds)
			for round := range want {
				if !got[round].Equal(want[round]) {
					t.Fatalf("%s: New(%d) reseeded to %d differs from New(%d) in round %d", form.spec, seeds[0], seeds[1], seeds[1], round)
				}
			}
		}
	}
	for _, name := range anondyn.AdversaryFactoryNames() {
		if !covered[name] {
			t.Errorf("factory %q has no form here: add one, so its renewal contract is checked", name)
		}
	}
}

// render draws the first rounds edge sets of an adversary against a
// view with no state.
func render(a anondyn.Adversary, n, rounds int) []*anondyn.EdgeSet {
	tr := make([]*anondyn.EdgeSet, rounds)
	for t := range tr {
		tr[t] = a.Edges(t, adversary.SizeView(n))
	}
	return tr
}
