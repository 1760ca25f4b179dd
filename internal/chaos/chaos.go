// Package chaos is the generated-fleet and failure-storm layer: a
// declarative Stress block (the spec format's optional `stress`
// section) describes a templated node fleet with correlation groups, a
// schedule of chaos events — crashes, crash storms, Byzantine casts,
// correlated group outages, cascading failures, partitions and
// starvation windows — and a set of survival assertions. The package
// compiles that description onto the existing Scenario machinery: a
// per-run Storm materializes the events into the fault layer's crash
// schedules and Byzantine strategy maps plus an adversary wrapper for
// the connectivity events, and after the runs the assertions evaluate
// against the aggregate rows into pass/fail Verdicts for the report.
//
// Every draw comes from the dedicated chaos stream (see StreamVersion):
// a storm is a pure function of (spec, run seed), so the same committed
// spec at the same seed reproduces byte-identical reports — locally and
// sharded over a dyna sweep -fleet — exactly like any other sweep.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// Stress is one declarative storm: fleet generation, the chaos
// schedule, the round budget and the survival assertions. The spec
// decoder fills it from the `stress` section; Validate checks it with
// key-citing errors.
type Stress struct {
	// Fleet describes the generated node population.
	Fleet Fleet `spec:"fleet,required"`
	// Seed seeds the chaos stream (combined with each run's seed; see
	// StreamVersion for the draw-order contract).
	Seed int64 `spec:"seed"`
	// Rounds is the duration: every run executes at most this many
	// rounds, ending earlier only at quiescence (all fault-free nodes
	// decided).
	Rounds int `spec:"rounds,always"`
	// Events is the chaos schedule, applied in order.
	Events []Event `spec:"events"`
	// Assertions are the survival criteria evaluated into report
	// verdicts after the runs.
	Assertions []Assertion `spec:"assertions"`
}

// Fleet is the generated node population: a total size, an optional
// weighted template mix, and an optional partition into correlation
// groups (the zone/region analogue — contiguous ID blocks, the same
// Clustered-style partition the adversary layer uses).
type Fleet struct {
	// TotalNodes is the fleet size (the sweep's n).
	TotalNodes int `spec:"total_nodes,always"`
	// Groups partitions the fleet into this many contiguous correlation
	// groups; 0 means ungrouped (group-outage and partition events are
	// then invalid).
	Groups int `spec:"groups"`
	// Templates is the weighted template mix; empty means one uniform
	// template with random inputs.
	Templates []Template `spec:"templates"`
}

// Template is one weighted node archetype of the fleet.
type Template struct {
	// Name labels the template in errors and the timeline.
	Name string `spec:"name"`
	// Weight is the relative draw weight (> 0).
	Weight int `spec:"weight,always,default=1"`
	// Input picks the template's input generator: "" or "random"
	// (uniform [0,1) from the input stream), "spread" (node position
	// i/(n−1)), "zero", "one", or "value:<v>".
	Input string `spec:"input"`
}

// Event is one entry of the chaos schedule. Kind selects the failure
// mode; the other fields parameterize it (Validate rejects fields that
// do not belong to the kind).
type Event struct {
	// Kind is the failure mode: "crash", "crash-storm", "byzantine",
	// "group-outage", "cascade", "partition" or "starve".
	Kind string `spec:"kind,always"`
	// Round is when the event fires (windowed kinds start here). Rounds
	// are 1-based like the engine's; byzantine casts hold for the whole
	// run and must leave it 0.
	Round int `spec:"round"`
	// Duration is the window length in rounds (crash-storm, partition,
	// starve).
	Duration int `spec:"duration"`
	// Rate is the per-node-per-round crash probability (crash-storm) or
	// the per-edge-per-round drop probability (starve), in (0, 1].
	Rate float64 `spec:"rate"`
	// Count sizes the victim set: nodes (crash, byzantine, cascade's
	// first wave) or groups (group-outage, partition without explicit
	// Groups).
	Count int `spec:"count"`
	// Groups lists explicit victim group IDs (group-outage, partition);
	// empty means Count groups drawn from the storm stream.
	Groups []int `spec:"groups"`
	// Strategy is the Byzantine strategy name (byzantine): silent,
	// extremist, equivocate, noise, laggard or mimic.
	Strategy string `spec:"strategy"`
	// Args are the strategy parameters (same arity rules as the spec's
	// byzantine casts).
	Args []float64 `spec:"args"`
	// Mode is the crash mode for crashing kinds: "clean" (default) or
	// "silent" (the final broadcast is suppressed).
	Mode string `spec:"mode"`
	// Waves is the number of cascade waves (≥ 1).
	Waves int `spec:"waves"`
	// Factor multiplies each cascade wave's size (> 0; default 2).
	Factor float64 `spec:"factor"`
	// Spread is the round gap between cascade waves (≥ 1 when Waves > 1).
	Spread int `spec:"spread"`
}

// Assertion is one declarative survival criterion. Exactly one form is
// set: a bare Kind ("converged", "agreement"), a rounds bound
// (Kind "max_rounds" with Bound), or a survivor floor (Kind
// "survivors" with Expr, e.g. ">= n/2").
type Assertion struct {
	Kind  string
	Bound int
	Expr  string
}

// Name renders the assertion's canonical spelling for verdict rows.
func (a Assertion) Name() string {
	switch a.Kind {
	case "max_rounds":
		return fmt.Sprintf("max_rounds <= %d", a.Bound)
	case "survivors":
		return "survivors " + a.Expr
	}
	return a.Kind
}

// eventKinds lists the accepted event kinds.
const eventKinds = "crash, crash-storm, byzantine, group-outage, cascade, partition or starve"

// Validate checks the stress block; errors cite the offending key with
// the spec-level "stress." prefix.
func (s *Stress) Validate() error {
	if s.Fleet.TotalNodes < 1 {
		return fmt.Errorf("stress.fleet.total_nodes: fleet size %d < 1", s.Fleet.TotalNodes)
	}
	if s.Fleet.Groups < 0 || s.Fleet.Groups > s.Fleet.TotalNodes {
		return fmt.Errorf("stress.fleet.groups: %d groups over %d nodes", s.Fleet.Groups, s.Fleet.TotalNodes)
	}
	for i, t := range s.Fleet.Templates {
		path := fmt.Sprintf("stress.fleet.templates[%d].", i)
		if t.Weight < 1 {
			return fmt.Errorf("%sweight: %d < 1", path, t.Weight)
		}
		if err := validateInput(path+"input", t.Input); err != nil {
			return err
		}
	}
	if s.Rounds < 1 {
		return fmt.Errorf("stress.rounds: round budget %d < 1 (the storm needs a duration)", s.Rounds)
	}
	for i := range s.Events {
		if err := s.validateEvent(i); err != nil {
			return err
		}
	}
	for i, a := range s.Assertions {
		if err := a.validate(fmt.Sprintf("stress.assertions[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

// validateInput checks one template input generator spec.
func validateInput(key, input string) error {
	name, arg, hasArg := strings.Cut(input, ":")
	switch name {
	case "", "random", "spread", "zero", "one":
		if hasArg {
			return fmt.Errorf("%s: %s takes no argument (got %q)", key, name, input)
		}
	case "value":
		if _, err := strconv.ParseFloat(arg, 64); err != nil {
			return fmt.Errorf("%s: value argument %q is not a number", key, arg)
		}
	default:
		return fmt.Errorf("%s: unknown generator %q (want random, spread, zero, one or value:<v>)", key, input)
	}
	return nil
}

// validateEvent checks one chaos event against its kind's field set.
func (s *Stress) validateEvent(i int) error {
	e := &s.Events[i]
	path := fmt.Sprintf("stress.events[%d].", i)
	switch e.Mode {
	case "", "clean", "silent":
	default:
		return fmt.Errorf("%smode: unknown mode %q (want clean or silent)", path, e.Mode)
	}
	windowed := func() error {
		if e.Round < 1 {
			return fmt.Errorf("%sround: %s starts at round %d (rounds are 1-based)", path, e.Kind, e.Round)
		}
		if e.Duration < 1 {
			return fmt.Errorf("%sduration: %s needs a window of at least one round", path, e.Kind)
		}
		return nil
	}
	groupsEvent := func() error {
		if s.Fleet.Groups < 1 {
			return fmt.Errorf("%skind: %s needs stress.fleet.groups", path, e.Kind)
		}
		if len(e.Groups) > 0 {
			if e.Count != 0 {
				return fmt.Errorf("%scount: cannot combine with an explicit group list", path)
			}
			for j, g := range e.Groups {
				if g < 0 || g >= s.Fleet.Groups {
					return fmt.Errorf("%sgroups[%d]: group %d out of range (fleet has %d groups)", path, j, g, s.Fleet.Groups)
				}
			}
			return nil
		}
		if e.Count < 1 || e.Count > s.Fleet.Groups {
			return fmt.Errorf("%scount: %d groups out of %d", path, e.Count, s.Fleet.Groups)
		}
		return nil
	}
	switch e.Kind {
	case "crash":
		if e.Count < 1 {
			return fmt.Errorf("%scount: crash needs at least one victim", path)
		}
		if e.Round < 1 {
			return fmt.Errorf("%sround: crash fires at round %d (rounds are 1-based)", path, e.Round)
		}
	case "crash-storm":
		if err := windowed(); err != nil {
			return err
		}
		if !(e.Rate > 0 && e.Rate <= 1) {
			return fmt.Errorf("%srate: crash-storm rate %g outside (0, 1]", path, e.Rate)
		}
	case "byzantine":
		if e.Count < 1 {
			return fmt.Errorf("%scount: byzantine needs at least one node", path)
		}
		if e.Round != 0 {
			return fmt.Errorf("%sround: byzantine casts hold for the whole run (leave round unset)", path)
		}
		if err := validateStrategy(path, e.Strategy, e.Args); err != nil {
			return err
		}
	case "group-outage":
		if err := groupsEvent(); err != nil {
			return err
		}
		if e.Round < 1 {
			return fmt.Errorf("%sround: group-outage fires at round %d (rounds are 1-based)", path, e.Round)
		}
	case "cascade":
		if e.Count < 1 {
			return fmt.Errorf("%scount: cascade needs a first-wave size", path)
		}
		if e.Round < 1 {
			return fmt.Errorf("%sround: cascade starts at round %d (rounds are 1-based)", path, e.Round)
		}
		if e.Waves < 1 {
			return fmt.Errorf("%swaves: cascade needs at least one wave", path)
		}
		if e.Waves > 1 && e.Spread < 1 {
			return fmt.Errorf("%sspread: a multi-wave cascade needs a round gap between waves", path)
		}
		if e.Factor < 0 {
			return fmt.Errorf("%sfactor: cascade growth factor %g < 0", path, e.Factor)
		}
	case "partition":
		if err := groupsEvent(); err != nil {
			return err
		}
		if err := windowed(); err != nil {
			return err
		}
	case "starve":
		if err := windowed(); err != nil {
			return err
		}
		if !(e.Rate > 0 && e.Rate <= 1) {
			return fmt.Errorf("%srate: starve rate %g outside (0, 1]", path, e.Rate)
		}
	case "":
		return fmt.Errorf("%skind: required (want %s)", path, eventKinds)
	default:
		return fmt.Errorf("%skind: unknown event kind %q (want %s)", path, e.Kind, eventKinds)
	}
	return nil
}

// validateStrategy mirrors the arity rules of the spec format's
// Byzantine casts.
func validateStrategy(path, strategy string, args []float64) error {
	switch strategy {
	case "silent", "noise":
		if len(args) != 0 {
			return fmt.Errorf("%sargs: %s takes no arguments", path, strategy)
		}
	case "extremist", "laggard", "mimic":
		if len(args) != 1 {
			return fmt.Errorf("%sargs: %s wants exactly one argument", path, strategy)
		}
	case "equivocate":
		if len(args) != 0 && len(args) != 2 {
			return fmt.Errorf("%sargs: equivocate wants no arguments or [low, high]", path)
		}
	case "":
		return fmt.Errorf("%sstrategy: required", path)
	default:
		return fmt.Errorf("%sstrategy: unknown strategy %q (want silent, extremist, equivocate, noise, laggard or mimic)",
			path, strategy)
	}
	return nil
}

// validate checks one assertion.
func (a Assertion) validate(key string) error {
	switch a.Kind {
	case "converged", "agreement":
		return nil
	case "max_rounds":
		if a.Bound < 1 {
			return fmt.Errorf("%s: max_rounds bound %d < 1", key, a.Bound)
		}
		return nil
	case "survivors":
		_, err := parseSurvivorBound(a.Expr)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	case "":
		return fmt.Errorf("%s: empty assertion (want converged, agreement, max_rounds or survivors)", key)
	}
	return fmt.Errorf("%s: unknown assertion %q (want converged, agreement, max_rounds or survivors)", key, a.Kind)
}

// parseSurvivorBound parses the survivors expression: ">=" followed by
// an integer literal or one of the symbolic per-n bounds.
func parseSurvivorBound(expr string) (func(n int) int, error) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(expr), ">=")
	if !ok {
		return nil, fmt.Errorf("survivors expression %q must start with \">=\"", expr)
	}
	switch rest = strings.TrimSpace(rest); rest {
	case "n/2":
		return func(n int) int { return n / 2 }, nil
	case "(n+1)/2":
		return func(n int) int { return (n + 1) / 2 }, nil
	case "(n-1)/2":
		return func(n int) int { return (n - 1) / 2 }, nil
	case "2n/3":
		return func(n int) int { return 2 * n / 3 }, nil
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 0 {
		return nil, fmt.Errorf("survivors bound %q is neither a non-negative integer, n/2, (n+1)/2, (n-1)/2 nor 2n/3", rest)
	}
	return func(int) int { return v }, nil
}
