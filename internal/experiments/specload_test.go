package experiments

import (
	"testing"

	"anondyn"
	"anondyn/examples/specs"
	"anondyn/internal/spec"
)

// TestCommittedSpecsCompile: every file under examples/specs parses
// and compiles to a runnable grid — the local half of the CI smoke
// job, so a committed scenario file cannot rot.
func TestCommittedSpecsCompile(t *testing.T) {
	names := specs.Names()
	if len(names) < 21 {
		t.Fatalf("only %d committed specs; the E1–E13 and F1 matrices alone need 21", len(names))
	}
	for _, name := range names {
		data, err := specs.Read(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sw, err := spec.Parse(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sw.Name == "" || sw.Description == "" {
			t.Errorf("%s: committed specs must carry name and description", name)
		}
		g, err := sw.Grid()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(g.Cells()) == 0 {
			t.Errorf("%s: compiles to an empty grid", name)
		}
	}
}

// TestSweepGridSmoke: the one-seed smoke of the experiment loader —
// runs the cheapest committed matrix end to end.
func TestSweepGridSmoke(t *testing.T) {
	g := sweepGrid("e4-rounds-vs-t.yaml")
	ran := 0
	runSweep(g, func(_ anondyn.Cell, _ int, res *anondyn.Result) {
		ran++
		if !res.Decided {
			t.Error("E4 cell undecided")
		}
	})
	if ran != 5 {
		t.Errorf("ran %d cells, want 5", ran)
	}
}
