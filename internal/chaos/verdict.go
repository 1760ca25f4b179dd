package chaos

import (
	"fmt"

	"anondyn"
)

// Verdict is one assertion's pass/fail outcome — a row of the report's
// verdict block.
type Verdict struct {
	Assertion string `json:"assertion"`
	Pass      bool   `json:"pass"`
	Detail    string `json:"detail"`
}

// Eval evaluates the stress block's assertions against a completed
// sweep's aggregate rows. rows[i] aggregates per runs of cell i, run j
// of cell i seeded baseSeed + i·per + j — the Grid seed flattening —
// so survivor floors recompile each run's storm from the spec alone:
// verdicts derive from (spec, rows), which a dyna submit client
// holds just like a local run, and the two render byte-identically.
func Eval(s *Stress, baseSeed int64, per int, rows []anondyn.CellResult) []Verdict {
	if per < 1 {
		per = 1
	}
	runs, decided, violations := 0, 0, 0
	maxRounds := 0.0
	for _, r := range rows {
		runs += r.Runs
		decided += r.Decided
		violations += r.Violations
		if r.Rounds.Max > maxRounds {
			maxRounds = r.Rounds.Max
		}
	}
	minSurvivors := -1
	survivorFloor := func() int {
		if minSurvivors >= 0 {
			return minSurvivors
		}
		minSurvivors = s.Fleet.TotalNodes
		for i := range rows {
			for j := 0; j < per; j++ {
				st := s.CompileStorm(baseSeed + int64(i*per+j))
				if st.Survivors < minSurvivors {
					minSurvivors = st.Survivors
				}
			}
		}
		return minSurvivors
	}
	verdicts := make([]Verdict, 0, len(s.Assertions))
	for _, a := range s.Assertions {
		v := Verdict{Assertion: a.Name()}
		switch a.Kind {
		case "converged":
			v.Pass = decided == runs
			v.Detail = fmt.Sprintf("decided %d/%d runs", decided, runs)
		case "agreement":
			v.Pass = violations == 0
			v.Detail = fmt.Sprintf("%d eps-agreement violations", violations)
		case "max_rounds":
			switch {
			case decided < runs:
				v.Detail = fmt.Sprintf("%d runs never decided within the %d-round budget", runs-decided, s.Rounds)
			case maxRounds > float64(a.Bound):
				v.Detail = fmt.Sprintf("slowest run took %.0f rounds (bound %d)", maxRounds, a.Bound)
			default:
				v.Pass = true
				v.Detail = fmt.Sprintf("slowest run decided in %.0f rounds (bound %d)", maxRounds, a.Bound)
			}
		case "survivors":
			bound, _ := parseSurvivorBound(a.Expr) // validated at parse time
			floor, min := bound(s.Fleet.TotalNodes), survivorFloor()
			v.Pass = min >= floor
			v.Detail = fmt.Sprintf("min survivors %d of %d (bound %d)", min, s.Fleet.TotalNodes, floor)
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}
