package anondyn

import "anondyn/internal/core"

// ProcsFor resolves the processes the compiled scenario's engine box
// runs seed with — its own, reinitialized in place, or freshly built —
// so the external tests can check process identity across runs.
func (c *CompiledScenario) ProcsFor(seed int64) ([]core.Process, error) {
	s := c.s
	s.Seed = seed
	procs, _, err := c.box.procsFor(s, s.ports())
	return procs, err
}

// BuildProcs builds s's processes in a fresh engine box.
func BuildProcs(s Scenario) ([]core.Process, error) {
	procs, _, err := (&engineBox{}).procsFor(s, s.ports())
	return procs, err
}
