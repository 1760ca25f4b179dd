package anondyn

import (
	"fmt"

	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// reseeder matches adversary.Reseeder (and any Byzantine strategy with
// the same method): rewind a randomized component's stream to the state
// of a fresh instance built with the given seed.
type reseeder interface {
	Reseed(seed int64)
}

// CompiledScenario is a Scenario whose static structure — validation,
// port policy, process construction — has been resolved once so that
// many seeded runs can share it. Between runs it recycles the
// simulation engine and, when the algorithm supports in-place
// reinitialization (DAC, DBAC) and ports are not randomized, the
// process objects too: a thousand-seed batch builds processes and views
// once, not once per seed.
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
// engine and one adversary. Batches give each worker its own (see
// RunManyCompiled). Stateful per-run collectors (Tracker, Series,
// Recorder) are shared across runs and accumulate; leave them unset for
// batches. Randomized adversaries without a Reseed method keep
// advancing their stream across runs: runs remain valid but are no
// longer reproducible per seed.
type CompiledScenario struct {
	s       Scenario
	ports   network.Ports // identity numberings, cached (non-RandomPorts)
	byz     map[int]fault.Strategy
	crashes fault.Schedule
	procs   []core.Process
	reinit  bool // every process supports core.Reinitializer
	box     engineBox
}

// Compile validates the scenario once and returns the reusable form.
func (s Scenario) Compile() (*CompiledScenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := &CompiledScenario{
		s:       s,
		byz:     s.byzStrategies(),
		crashes: s.crashSchedule(),
	}
	if !s.RandomPorts {
		c.ports = network.IdentityPorts(s.N)
		procs, err := s.buildProcs(c.ports, c.byz)
		if err != nil {
			return nil, err
		}
		c.procs = procs
		c.reinit = true
		for _, p := range procs {
			if p == nil {
				continue
			}
			if _, ok := p.(core.Reinitializer); !ok {
				c.reinit = false
				break
			}
		}
	} else if _, err := s.buildProcs(s.portsFor(s.Seed), c.byz); err != nil {
		// Surface construction errors at compile time even though the
		// per-run ports force per-run process construction.
		return nil, err
	}
	return c, nil
}

// Run executes one seeded instance of the compiled scenario and returns
// a detached Result (safe to retain across further runs).
func (c *CompiledScenario) Run(seed int64, inputs []float64) (*Result, error) {
	s := c.s
	if inputs != nil {
		if len(inputs) != s.N {
			return nil, fmt.Errorf("%w: %d inputs for n=%d", ErrScenario, len(inputs), s.N)
		}
		s.Inputs = inputs
	}
	s.Seed = seed

	if r, ok := s.Adversary.(reseeder); ok {
		r.Reseed(seed)
	}
	for _, strat := range c.byz {
		if r, ok := strat.(reseeder); ok {
			r.Reseed(seed)
		}
	}

	ports := c.ports
	procs := c.procs
	switch {
	case s.RandomPorts:
		// Self-ports change per seed, so processes must be rebuilt.
		ports = s.portsFor(seed)
		var err error
		procs, err = s.buildProcs(ports, c.byz)
		if err != nil {
			return nil, err
		}
	case c.reinit:
		for i, p := range procs {
			if p == nil {
				continue
			}
			// The constructors validate inputs; in-place recycling must
			// reject exactly what a fresh build would.
			if err := core.ValidateInput(s.Inputs[i]); err != nil {
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
			p.(core.Reinitializer).Reinit(s.Inputs[i])
			if s.Tracker != nil {
				s.Tracker.SetInput(i, s.Inputs[i])
			}
		}
	default:
		var err error
		procs, err = s.buildProcs(ports, c.byz)
		if err != nil {
			return nil, err
		}
	}

	return c.box.run(s.config(procs, ports, c.byz, c.crashes, seed))
}

// Scenario returns the template the compiled scenario was built from.
func (c *CompiledScenario) Scenario() Scenario { return c.s }

// Recycled reports whether runs reuse the compiled process objects
// (in-place reinitialization) rather than rebuilding them per seed.
func (c *CompiledScenario) Recycled() bool { return c.reinit }
