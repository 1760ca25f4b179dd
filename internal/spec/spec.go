// Package spec parses declarative sweep definitions — YAML or JSON
// scenario matrices — into anondyn.Grid values and emits Sweeps back
// out as files. A spec names its axes (ns/fs/epss/algorithms/
// adversaries, plus an optional variants axis of scenario overrides),
// the Monte-Carlo width and seeding, the round and bandwidth
// accounting knobs, and the fault pattern (crash schedules and
// Byzantine casts, compiled onto Grid.Mutate), so every experiment in
// the repository is a reviewable, diffable, CI-runnable artifact
// instead of a flag string or a hand-rolled loop. Validation errors
// cite the offending key.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/chaos"
)

// Sweep is one declarative scenario matrix. The zero value of every
// field means "unset" and inherits the Grid default.
type Sweep struct {
	// Name labels the sweep in reports and errors.
	Name string `spec:"name"`
	// Description says what the sweep demonstrates.
	Description string `spec:"description"`

	// Ns are the network sizes. Either Ns (crossed with Fs) or Pairs
	// must be set.
	Ns []int `spec:"ns"`
	// Pairs lists explicit {n, f} cells for matrices that are not a
	// cross product (spec key "cells").
	Pairs []Pair `spec:"cells"`
	// Fs are the fault bounds: literals or the symbolic per-n bounds
	// "(n-1)/2" (max crash f), "n/2" (the crash boundary), "(n-1)/5"
	// (max Byzantine f). A symbolic entry pairs each n with its derived
	// f instead of crossing the axes.
	Fs []Bound `spec:"fs"`
	// Epss are the ε values.
	Epss []float64 `spec:"epss"`
	// Algorithms are algorithm names in ParseAlgo spelling.
	Algorithms []string `spec:"algorithms"`
	// Adversaries are factory specs in ParseAdversaryFactory grammar.
	Adversaries []string `spec:"adversaries"`
	// Variants is the optional scenario-override axis.
	Variants []Variant `spec:"variants"`

	// SeedsPerCell is the Monte-Carlo width per cell.
	SeedsPerCell int `spec:"seeds_per_cell"`
	// BaseSeed offsets the global seed sequence.
	BaseSeed int64 `spec:"base_seed"`
	// MaxRounds caps each run.
	MaxRounds int `spec:"max_rounds"`
	// AccountBandwidth tallies wire bytes per run.
	AccountBandwidth bool `spec:"account_bandwidth"`
	// Inputs picks the input generator: "" (random), "random",
	// "spread", "split" and the parametric "split:<k>", "split:n/2",
	// "split:(n+1)/2".
	Inputs string `spec:"inputs"`
	// Construction swaps in a packaged impossibility construction:
	// "byzsplit" overrides each run's adversary, Byzantine cast and
	// inputs with the Theorem 10 layout for the cell's n and f.
	Construction string `spec:"construction"`

	// Overrides are the sweep-wide scenario overrides; a variant's own
	// overrides take precedence per field.
	Overrides

	// Crashes schedules crash faults on every run.
	Crashes *Crashes `spec:"crashes"`
	// Byzantine assigns Byzantine casts on every run.
	Byzantine []Cast `spec:"byzantine"`

	// Stress is the optional chaos section: a generated fleet, a
	// failure-storm schedule and survival assertions. It replaces the
	// ns/fs matrix (the fleet defines the single network size) and is
	// incompatible with the fault-pattern keys — the storm is the fault
	// pattern.
	Stress *chaos.Stress `spec:"stress"`
}

// Pair is one explicit {n, f} cell.
type Pair struct {
	N int `spec:"n,required"`
	F int `spec:"f,always"`
}

// Bound is a fault-bound axis entry: a literal, or a symbolic per-n
// expression (Expr non-empty).
type Bound struct {
	Lit  int
	Expr string
}

// value resolves the bound for one network size.
func (b Bound) value(n int) int {
	switch b.Expr {
	case "":
		return b.Lit
	case "(n-1)/2":
		return (n - 1) / 2
	case "n/2":
		return n / 2
	case "(n-1)/5":
		return (n - 1) / 5
	}
	panic("spec: unchecked bound expression " + b.Expr) // validated at decode
}

// boundExprs lists the accepted symbolic fault bounds.
const boundExprs = `"(n-1)/2", "n/2" or "(n-1)/5"`

// Overrides are the declarative counterparts of the Scenario override
// fields — the knobs the necessity and trade-off experiments turn.
type Overrides struct {
	// Algorithm, when set on a variant, replaces the cell's algorithm.
	Algorithm string `spec:"algorithm"`
	// Unchecked skips the n-vs-f resilience validation; nil = unset,
	// so a variant's explicit false overrides a sweep-wide true.
	Unchecked *bool `spec:"unchecked"`
	// Quorum replaces the algorithm's quorum: an integer literal or
	// the symbolic "crashdeg" (⌊n/2⌋), "byzdeg" (⌊(n+3f)/2⌋), "f".
	// Empty = the paper quorum.
	Quorum string `spec:"quorum,count"`
	// PEnd, when > 0, replaces the ε-derived output phase.
	PEnd int `spec:"p_end"`
	// PiggybackWindow is K for dbac-pb.
	PiggybackWindow int `spec:"piggyback_window"`
	// MegaT is the block length for megaround.
	MegaT int `spec:"mega_t"`
	// MaxMessageBytes, when > 0, is the per-link byte budget.
	MaxMessageBytes int `spec:"max_message_bytes"`
}

// Variant is one entry of the scenario-override axis.
type Variant struct {
	// Name labels the variant in cell results.
	Name string `spec:"name"`
	Overrides
}

// Crashes declares a crash schedule applied to every run of the
// sweep. Either Nodes (a named selector, sized by Count) or NodeList
// (explicit IDs) picks the victims.
type Crashes struct {
	// Count sizes the victim set for a named selector: an integer
	// literal, "f" (the cell's fault bound) or "(n-1)/2". Defaults to
	// "f".
	Count string `spec:"count,count"`
	// Nodes is a named victim selector: "odd" (IDs 1,3,5,…), "even",
	// "first" (0,1,2,…) or "top" (n−1, n−2, …).
	Nodes string `spec:"nodes"`
	// NodeList gives explicit victim IDs instead of a selector.
	NodeList []int `spec:"nodes"`
	// Mode is "clean" (default: crash at the end of the round) or
	// "silent" (the final broadcast is suppressed).
	Mode string `spec:"mode"`
	// Round is the crash round of the first victim.
	Round int `spec:"round"`
	// Stagger offsets each subsequent victim's crash round (0 = all
	// crash at Round).
	Stagger int `spec:"stagger"`
	// Rounds gives explicit per-victim crash rounds matching NodeList.
	Rounds []int `spec:"rounds"`
}

// Cast assigns one Byzantine strategy to a set of nodes.
type Cast struct {
	// Count sizes the cast for a named selector (same grammar as
	// Crashes.Count).
	Count string `spec:"count,count"`
	// Nodes is a named selector: "middle" (n/2, n/2+1, …), "first" or
	// "top".
	Nodes string `spec:"nodes"`
	// NodeList gives explicit IDs instead of a selector.
	NodeList []int `spec:"nodes"`
	// Strategy is the strategy name: silent, extremist, equivocate,
	// noise, laggard or mimic.
	Strategy string `spec:"strategy,always"`
	// Args are the strategy parameters (extremist value, equivocate
	// low/high, laggard value, mimic target).
	Args []float64 `spec:"args"`
	// Seed pins the noise strategy's seed; nil = run seed + node ID.
	Seed *int64 `spec:"seed"`
}

// Parse reads one sweep from YAML or JSON bytes (autodetected).
func Parse(data []byte) (*Sweep, error) {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, fmt.Errorf("spec: empty document")
	}
	var (
		doc any
		err error
	)
	if strings.HasPrefix(trimmed, "{") {
		doc, err = parseJSON(data)
	} else {
		doc, err = parseYAML(data)
	}
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	sw := &Sweep{}
	if err := decodeValue(doc, reflect.ValueOf(sw).Elem(), "", false); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := sw.validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return sw, nil
}

// ParseFile reads one sweep from a YAML or JSON file, prefixing errors
// with the path.
func ParseFile(path string) (*Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sw, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sw, nil
}

// parseJSON parses JSON into the same generic tree as parseYAML,
// keeping integers exact.
func parseJSON(data []byte) (any, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	return normalizeJSON(doc), nil
}

// normalizeJSON converts json.Number leaves into int64/float64.
func normalizeJSON(v any) any {
	switch v := v.(type) {
	case json.Number:
		if i, err := strconv.ParseInt(v.String(), 10, 64); err == nil {
			return i
		}
		f, _ := v.Float64()
		return f
	case []any:
		for i := range v {
			v[i] = normalizeJSON(v[i])
		}
		return v
	case map[string]any:
		for k := range v {
			v[k] = normalizeJSON(v[k])
		}
		return v
	default:
		return v
	}
}

// validate checks cross-field consistency after decoding; field-level
// syntax is checked during decode.
func (s *Sweep) validate() error {
	if s.Stress != nil {
		if err := s.validateStress(); err != nil {
			return err
		}
	} else if len(s.Ns) == 0 && len(s.Pairs) == 0 {
		return fmt.Errorf("ns: at least one network size is required (or set cells or stress)")
	}
	if len(s.Ns) > 0 && len(s.Pairs) > 0 {
		return fmt.Errorf("cells: cannot combine with ns (pick explicit cells or a cross product)")
	}
	if len(s.Pairs) > 0 && len(s.Fs) > 0 {
		return fmt.Errorf("cells: cannot combine with fs")
	}
	for i, n := range s.Ns {
		if n < 1 {
			return fmt.Errorf("ns[%d]: network size %d < 1", i, n)
		}
	}
	for i, p := range s.Pairs {
		if p.N < 1 {
			return fmt.Errorf("cells[%d].n: network size %d < 1", i, p.N)
		}
		if p.F < 0 {
			return fmt.Errorf("cells[%d].f: fault bound %d < 0", i, p.F)
		}
	}
	symbolic := false
	for _, b := range s.Fs {
		if b.Expr != "" {
			symbolic = true
		}
	}
	if symbolic && len(s.Fs) > 1 {
		return fmt.Errorf("fs: a symbolic bound must be the only fs entry (it pairs every n with its derived f)")
	}
	for i, name := range s.Algorithms {
		if _, err := anondyn.ParseAlgo(name); err != nil {
			return fmt.Errorf("algorithms[%d]: %w", i, err)
		}
	}
	for i, a := range s.Adversaries {
		if _, err := anondyn.ParseAdversaryFactory(a); err != nil {
			return fmt.Errorf("adversaries[%d]: %w", i, err)
		}
	}
	if len(s.Variants) > 1 {
		seen := make(map[string]bool, len(s.Variants))
		for i, v := range s.Variants {
			if v.Name == "" {
				return fmt.Errorf("variants[%d].name: every variant of a multi-variant axis needs a name", i)
			}
			if seen[v.Name] {
				return fmt.Errorf("variants[%d].name: duplicate variant %q", i, v.Name)
			}
			seen[v.Name] = true
		}
	}
	if err := s.Overrides.validate(""); err != nil {
		return err
	}
	for i, v := range s.Variants {
		if err := v.Overrides.validate(fmt.Sprintf("variants[%d].", i)); err != nil {
			return err
		}
	}
	switch s.Construction {
	case "", "byzsplit":
	default:
		return fmt.Errorf("construction: unknown construction %q (want byzsplit)", s.Construction)
	}
	if s.Crashes != nil {
		if err := s.Crashes.validate(); err != nil {
			return err
		}
	}
	castBy := make(map[int]int) // node → index of the cast naming it
	for i, c := range s.Byzantine {
		path := fmt.Sprintf("byzantine[%d].", i)
		if err := c.validate(path); err != nil {
			return err
		}
		for _, node := range c.NodeList {
			if j, ok := castBy[node]; ok {
				if j == i {
					return fmt.Errorf("%snodes: duplicate node %d", path, node)
				}
				return fmt.Errorf("%snodes: node %d already cast by byzantine[%d]", path, node, j)
			}
			castBy[node] = i
		}
	}
	name, arg, hasArg := strings.Cut(s.Inputs, ":")
	switch name {
	case "", "random", "spread":
		if hasArg {
			return fmt.Errorf("inputs: %s takes no argument (got %q)", name, s.Inputs)
		}
	case "split":
		switch arg {
		case "", "n/2", "(n+1)/2":
		default:
			if _, err := strconv.Atoi(arg); err != nil {
				return fmt.Errorf("inputs: split argument %q is neither an integer, n/2 nor (n+1)/2", arg)
			}
		}
	default:
		return fmt.Errorf("inputs: unknown generator %q (want random, spread or split[:<k>|n/2|(n+1)/2])", s.Inputs)
	}
	return nil
}

// validate checks one override block; path prefixes the offending key.
func (o Overrides) validate(path string) error {
	switch o.Quorum {
	case "", "crashdeg", "byzdeg", "f":
	default:
		if _, err := strconv.Atoi(o.Quorum); err != nil {
			return fmt.Errorf("%squorum: %q is neither an integer nor crashdeg/byzdeg/f", path, o.Quorum)
		}
	}
	if o.Algorithm != "" {
		if path == "" {
			return fmt.Errorf("algorithm: use the algorithms axis at the top level (algorithm overrides belong to variants)")
		}
		if _, err := anondyn.ParseAlgo(o.Algorithm); err != nil {
			return fmt.Errorf("%salgorithm: %w", path, err)
		}
	}
	return nil
}

// validate checks one crash schedule.
func (c *Crashes) validate() error {
	if len(c.NodeList) > 0 {
		if c.Nodes != "" {
			return fmt.Errorf("crashes.nodes: cannot combine a named selector with an explicit node list")
		}
		if len(c.Rounds) > 0 && len(c.Rounds) != len(c.NodeList) {
			return fmt.Errorf("crashes.rounds: %d rounds for %d nodes", len(c.Rounds), len(c.NodeList))
		}
		seen := make(map[int]bool, len(c.NodeList))
		for _, node := range c.NodeList {
			if seen[node] {
				return fmt.Errorf("crashes.nodes: duplicate node %d", node)
			}
			seen[node] = true
		}
	} else {
		switch c.Nodes {
		case "odd", "even", "first", "top":
		case "":
			return fmt.Errorf("crashes.nodes: pick a selector (odd, even, first, top) or an explicit node list")
		default:
			return fmt.Errorf("crashes.nodes: unknown selector %q (want odd, even, first, top or a node list)", c.Nodes)
		}
		if len(c.Rounds) > 0 {
			return fmt.Errorf("crashes.rounds: explicit rounds need an explicit node list")
		}
	}
	if err := validateCount("crashes.count", c.Count); err != nil {
		return err
	}
	switch c.Mode {
	case "", "clean", "silent":
	default:
		return fmt.Errorf("crashes.mode: unknown mode %q (want clean or silent)", c.Mode)
	}
	return nil
}

// validate checks one Byzantine cast.
func (c *Cast) validate(path string) error {
	if len(c.NodeList) > 0 && c.Nodes != "" {
		return fmt.Errorf("%snodes: cannot combine a named selector with an explicit node list", path)
	}
	if len(c.NodeList) == 0 {
		switch c.Nodes {
		case "middle", "first", "top":
		case "":
			return fmt.Errorf("%snodes: pick a selector (middle, first, top) or an explicit node list", path)
		default:
			return fmt.Errorf("%snodes: unknown selector %q (want middle, first, top or a node list)", path, c.Nodes)
		}
	}
	if err := validateCount(path+"count", c.Count); err != nil {
		return err
	}
	switch c.Strategy {
	case "silent", "noise":
		if len(c.Args) != 0 {
			return fmt.Errorf("%sargs: %s takes no arguments", path, c.Strategy)
		}
	case "extremist", "laggard", "mimic":
		if len(c.Args) != 1 {
			return fmt.Errorf("%sargs: %s wants exactly one argument", path, c.Strategy)
		}
	case "equivocate":
		if len(c.Args) != 0 && len(c.Args) != 2 {
			return fmt.Errorf("%sargs: equivocate wants no arguments or [low, high]", path)
		}
	case "":
		return fmt.Errorf("%sstrategy: required", path)
	default:
		return fmt.Errorf("%sstrategy: unknown strategy %q (want silent, extremist, equivocate, noise, laggard or mimic)",
			path, c.Strategy)
	}
	if c.Seed != nil && c.Strategy != "noise" {
		return fmt.Errorf("%sseed: only the noise strategy is seeded", path)
	}
	return nil
}

// validateCount checks the count grammar shared by crashes and casts.
func validateCount(key, count string) error {
	switch count {
	case "", "f", "(n-1)/2":
		return nil
	}
	v, err := strconv.Atoi(count)
	if err != nil || v < 0 {
		return fmt.Errorf("%s: %q is neither a non-negative integer, \"f\" nor \"(n-1)/2\"", key, count)
	}
	return nil
}
