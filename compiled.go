package anondyn

// CompiledScenario is a Scenario validated once, with its processes
// built once, so that a hand-written loop of seeded runs can share it.
// Runs go through the same engine box as every batch: the simulation
// engine is recycled between runs and, when ports are fixed, the
// process objects too.
//
// Per-run semantics of Run(seed, inputs):
//
//   - the run seed replaces Scenario.Seed (delivery shuffling, random
//     ports);
//   - randomized adversaries and Byzantine strategies implementing
//     Reseed(seed) are rewound, making the run identical to a fresh
//     Scenario whose components were constructed with that seed;
//   - nil inputs mean the template's Inputs.
//
// A CompiledScenario is NOT safe for concurrent use — it owns one
// engine and one adversary; give each goroutine its own, or use
// RunManyStream, whose workers each own an engine box. Stateful per-run
// collectors (Tracker, Series, Recorder) are shared across runs and
// accumulate; leave them unset for batches. Randomized adversaries
// without a Reseed method keep advancing their stream across runs: runs
// remain valid but are no longer reproducible per seed.
type CompiledScenario struct {
	s   Scenario
	box engineBox
}

// Compile validates the scenario, builds its processes — so construction
// errors surface here rather than on the first run — and returns the
// reusable form.
func (s Scenario) Compile() (*CompiledScenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := &CompiledScenario{s: s}
	if _, _, err := c.box.procsFor(s, s.ports()); err != nil {
		return nil, err
	}
	return c, nil
}

// Run executes one seeded instance of the compiled scenario and returns
// a detached Result (safe to retain across further runs).
func (c *CompiledScenario) Run(seed int64, inputs []float64) (*Result, error) {
	s := c.s
	if inputs != nil {
		s.Inputs = inputs
	}
	s.Seed = seed
	if r, ok := s.Adversary.(AdversaryReseeder); ok {
		r.Reseed(seed)
	}
	for _, strat := range s.Byzantine {
		// Byzantine strategies rewind through the same method.
		if r, ok := strat.(AdversaryReseeder); ok {
			r.Reseed(seed)
		}
	}
	return c.box.run(s)
}
