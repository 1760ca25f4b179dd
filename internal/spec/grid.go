package spec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"anondyn"
	"anondyn/internal/adversary"
)

// Grid compiles the sweep into a runnable anondyn.Grid: axes resolve
// through the algorithm and adversary registries, explicit cells and
// symbolic fault bounds become an n/f pair filter, the variants axis
// becomes Grid.Variants, and the fault pattern (crashes, casts, the
// byzsplit construction) compiles onto Grid.Mutate. Errors cite the
// offending key.
func (s *Sweep) Grid() (anondyn.Grid, error) {
	g := anondyn.Grid{
		SeedsPerCell:     s.SeedsPerCell,
		BaseSeed:         s.BaseSeed,
		MaxRounds:        s.MaxRounds,
		AccountBandwidth: s.AccountBandwidth,
	}
	if err := s.compileAxes(&g); err != nil {
		return anondyn.Grid{}, err
	}
	if err := s.compileVariants(&g); err != nil {
		return anondyn.Grid{}, err
	}
	inputs, err := compileInputs(s.Inputs)
	if err != nil {
		return anondyn.Grid{}, err
	}
	g.Inputs = inputs
	g.Mutate = s.compileMutate()
	if s.Stress != nil {
		if err := s.Stress.CheckDuration(); err != nil {
			return anondyn.Grid{}, err
		}
		s.applyStress(&g)
	}
	if s.Construction != "" || s.Crashes != nil || len(s.Byzantine) > 0 {
		// Place every (n, f) cell's faults once, so a bad placement is
		// a spec error before the first run, not a run-time failure (a
		// panic for byzsplit) mid-sweep or on a remote worker. The check
		// builds no node set, so its cost does not grow with n.
		fs := g.Fs
		if len(fs) == 0 {
			fs = []int{0} // the Grid default
		}
		for _, n := range g.Ns {
			for _, f := range fs {
				c := anondyn.Cell{N: n, F: f}
				if g.Skip != nil && g.Skip(c) {
					continue
				}
				if err := s.checkPlacement(c); err != nil {
					return anondyn.Grid{}, err
				}
			}
		}
	}
	return g, nil
}

// checkPlacement resolves one cell's fault pattern as compileMutate
// will: the byzsplit layout must exist, every listed crash victim and
// cast node must be a node of the cell, no node may be cast twice, and
// a cast node must not also be crash-scheduled. Selector sets are
// compared as progressions.
func (s *Sweep) checkPlacement(c anondyn.Cell) error {
	cell := fmt.Sprintf("cell n=%d f=%d", c.N, c.F)
	if s.Construction == "byzsplit" {
		if err := adversary.CheckByzSplit(c.N, c.F); err != nil {
			return fmt.Errorf("construction: %s: %w", cell, err)
		}
	}
	var keys []string // the crash schedule first, then each cast
	var sets []nodeSet
	if s.Crashes != nil {
		keys = append(keys, "crashes")
		sets = append(sets, s.Crashes.set(c))
	}
	for i := range s.Byzantine {
		keys = append(keys, fmt.Sprintf("byzantine[%d]", i))
		sets = append(sets, s.Byzantine[i].set(c))
	}
	listed := make(map[int]int) // listed node → index of its set
	for k, set := range sets {
		clash := func(j, node int) error {
			if keys[j] == "crashes" {
				return fmt.Errorf("%s.nodes: %s: node %d is also crash-scheduled (crashes.nodes)", keys[k], cell, node)
			}
			return fmt.Errorf("%s.nodes: %s: node %d already cast by %s", keys[k], cell, node, keys[j])
		}
		for _, node := range set.list {
			if node < 0 || node >= c.N {
				return fmt.Errorf("%s.nodes: %s: node %d outside [0, %d)", keys[k], cell, node, c.N)
			}
			if j, ok := listed[node]; ok {
				return clash(j, node)
			}
			for j := range k {
				if sets[j].list == nil && sets[j].sel.has(node) {
					return clash(j, node)
				}
			}
			listed[node] = k
		}
		if set.list != nil {
			continue
		}
		for j := range k {
			if sets[j].list == nil {
				if node, ok := set.sel.meet(sets[j].sel); ok {
					return clash(j, node)
				}
				continue
			}
			for _, node := range sets[j].list {
				if set.sel.has(node) {
					return clash(j, node)
				}
			}
		}
	}
	return nil
}

// compileAxes fills the n/f/ε/algorithm/adversary axes, expanding
// explicit cells and symbolic bounds into a pair filter.
func (s *Sweep) compileAxes(g *anondyn.Grid) error {
	pairs := s.Pairs
	if len(pairs) == 0 && len(s.Fs) == 1 && s.Fs[0].Expr != "" {
		// A symbolic bound pairs each n with its derived f.
		for _, n := range s.Ns {
			pairs = append(pairs, Pair{N: n, F: s.Fs[0].value(n)})
		}
	}
	if len(pairs) > 0 {
		// Distinct axis values in first-seen order plus a membership
		// filter reproduce the pair list under Cells() enumeration
		// (n outer, f inner). That reconstruction can only reorder a
		// list that repeats an n non-contiguously, so reject any list
		// whose declared order the sweep would not honor — a committed
		// artifact must run in the order it reads.
		seen := make(map[Pair]bool, len(pairs))
		var ns, fs []int
		for i, p := range pairs {
			if seen[p] {
				return fmt.Errorf("cells[%d]: duplicate cell n=%d f=%d", i, p.N, p.F)
			}
			seen[p] = true
			if !containsInt(ns, p.N) {
				ns = append(ns, p.N)
			}
			if !containsInt(fs, p.F) {
				fs = append(fs, p.F)
			}
		}
		var enumerated []Pair
		for _, n := range ns {
			for _, f := range fs {
				if seen[Pair{N: n, F: f}] {
					enumerated = append(enumerated, Pair{N: n, F: f})
				}
			}
		}
		for i := range pairs {
			if enumerated[i] != pairs[i] {
				return fmt.Errorf("cells: the sweep enumerates n-major (cell %d would run as n=%d f=%d, not n=%d f=%d); group cells by n in that order",
					i, enumerated[i].N, enumerated[i].F, pairs[i].N, pairs[i].F)
			}
		}
		g.Ns, g.Fs = ns, fs
		g.Skip = func(c anondyn.Cell) bool { return !seen[Pair{N: c.N, F: c.F}] }
	} else {
		g.Ns = s.Ns
		for _, b := range s.Fs {
			g.Fs = append(g.Fs, b.Lit)
		}
	}
	g.Epss = s.Epss
	for _, name := range s.Algorithms {
		a, err := anondyn.ParseAlgo(name)
		if err != nil {
			return fmt.Errorf("algorithms: %w", err)
		}
		g.Algorithms = append(g.Algorithms, a)
	}
	for _, spec := range s.Adversaries {
		f, err := anondyn.ParseAdversaryFactory(spec)
		if err != nil {
			return fmt.Errorf("adversaries: %w", err)
		}
		g.Adversaries = append(g.Adversaries, f)
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// compileVariants merges the sweep-wide overrides into each variant
// (variant fields win) and compiles the result onto the Grid's
// variants axis. With no variants axis, the sweep-wide overrides
// become one unnamed variant.
func (s *Sweep) compileVariants(g *anondyn.Grid) error {
	variants := s.Variants
	if len(variants) == 0 {
		if !s.Overrides.isZero() {
			variants = []Variant{{}}
		} else {
			return nil
		}
	}
	for _, v := range variants {
		merged := mergeOverrides(s.Overrides, v.Overrides)
		apply, err := compileOverrides(merged)
		if err != nil {
			return err
		}
		g.Variants = append(g.Variants, anondyn.Variant{Name: v.Name, Apply: apply})
	}
	return nil
}

// isZero reports whether no override is set.
func (o Overrides) isZero() bool {
	return o == Overrides{}
}

// mergeOverrides layers a variant's overrides on the sweep-wide base:
// every field the variant sets (non-zero; Unchecked non-nil) wins.
func mergeOverrides(base, v Overrides) Overrides {
	out, set := reflect.ValueOf(&base).Elem(), reflect.ValueOf(v)
	for i := range set.NumField() {
		if !set.Field(i).IsZero() {
			out.Field(i).Set(set.Field(i))
		}
	}
	return base
}

// compileOverrides turns one merged override block into a scenario
// hook. The quorum and algorithm symbols were validated at parse time.
func compileOverrides(o Overrides) (func(*anondyn.Scenario), error) {
	var algo anondyn.Algo
	if o.Algorithm != "" {
		a, err := anondyn.ParseAlgo(o.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("algorithm: %w", err)
		}
		algo = a
	}
	quorum, err := compileQuorum(o.Quorum)
	if err != nil {
		return nil, err
	}
	return func(s *anondyn.Scenario) {
		if o.Unchecked != nil && *o.Unchecked {
			s.Unchecked = true
		}
		if quorum != nil {
			s.QuorumOverride = quorum(s)
		}
		if o.PEnd != 0 {
			s.PEndOverride = o.PEnd
		}
		if o.PiggybackWindow != 0 {
			s.PiggybackWindow = o.PiggybackWindow
		}
		if o.MegaT != 0 {
			s.MegaT = o.MegaT
		}
		if o.MaxMessageBytes != 0 {
			s.MaxMessageBytes = o.MaxMessageBytes
		}
		if algo != 0 {
			s.Algorithm = algo
		}
	}, nil
}

// compileQuorum resolves the quorum grammar against a run's scenario.
func compileQuorum(q string) (func(*anondyn.Scenario) int, error) {
	switch q {
	case "":
		return nil, nil
	case "crashdeg":
		return func(s *anondyn.Scenario) int { return anondyn.CrashDegree(s.N) }, nil
	case "byzdeg":
		return func(s *anondyn.Scenario) int { return anondyn.ByzDegree(s.N, s.F) }, nil
	case "f":
		return func(s *anondyn.Scenario) int { return s.F }, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil {
		return nil, fmt.Errorf("quorum: %q is neither an integer nor crashdeg/byzdeg/f", q)
	}
	return func(*anondyn.Scenario) int { return v }, nil
}

// compileInputs resolves the inputs grammar into a Grid input
// generator; "" and "random" keep the Grid default (seeded random
// inputs).
func compileInputs(spec string) (func(n int, seed int64) []float64, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "", "random":
		return nil, nil
	case "spread":
		return func(n int, _ int64) []float64 { return anondyn.SpreadInputs(n) }, nil
	case "split":
		split, err := compileSplit(arg)
		if err != nil {
			return nil, err
		}
		return func(n int, _ int64) []float64 { return anondyn.SplitInputs(n, split(n)) }, nil
	}
	return nil, fmt.Errorf("inputs: unknown generator %q", spec)
}

// compileSplit resolves the split point: n/2 by default, the ceiling
// (n+1)/2, or a literal.
func compileSplit(arg string) (func(n int) int, error) {
	switch arg {
	case "", "n/2":
		return func(n int) int { return n / 2 }, nil
	case "(n+1)/2":
		return func(n int) int { return (n + 1) / 2 }, nil
	}
	k, err := strconv.Atoi(arg)
	if err != nil {
		return nil, fmt.Errorf("inputs: split argument %q: %v", arg, err)
	}
	return func(int) int { return k }, nil
}

// compileMutate assembles the per-run fault hook: the byzsplit
// construction, then crash schedules, then Byzantine casts. Returns
// nil when the sweep declares none of them.
func (s *Sweep) compileMutate() func(*anondyn.Scenario, anondyn.Cell, int64) {
	if s.Construction == "" && s.Crashes == nil && len(s.Byzantine) == 0 {
		return nil
	}
	return func(sc *anondyn.Scenario, c anondyn.Cell, seed int64) {
		if s.Construction == "byzsplit" {
			split, err := anondyn.NewByzSplit(c.N, c.F)
			if err != nil {
				// Grid() placed every cell before the run started.
				panic(fmt.Sprintf("spec: byzsplit on validated cell n=%d f=%d: %v", c.N, c.F, err))
			}
			sc.Adversary = split.Adversary()
			sc.Byzantine = split.Byzantine()
			sc.Inputs = split.Inputs()
		}
		if s.Crashes != nil {
			sc.Crashes = s.Crashes.compile(c)
		}
		if len(s.Byzantine) > 0 {
			byz := make(map[int]anondyn.Strategy)
			for i := range s.Byzantine {
				s.Byzantine[i].compile(c, seed, byz)
			}
			sc.Byzantine = byz
		}
	}
}

// compile materializes the crash schedule for one cell.
func (c *Crashes) compile(cell anondyn.Cell) map[int]anondyn.Crash {
	nodes := c.set(cell).nodes()
	crashes := make(map[int]anondyn.Crash, len(nodes))
	for i, node := range nodes {
		round := c.Round + i*c.Stagger
		if len(c.Rounds) > 0 {
			round = c.Rounds[i]
		}
		if c.Mode == "silent" {
			crashes[node] = anondyn.CrashSilent(round)
		} else {
			crashes[node] = anondyn.CrashAt(round)
		}
	}
	return crashes
}

// set resolves the victim set for one cell.
func (c *Crashes) set(cell anondyn.Cell) nodeSet {
	return resolveNodes(c.Nodes, c.NodeList, c.Count, cell)
}

// set resolves the cast's node set for one cell.
func (c *Cast) set(cell anondyn.Cell) nodeSet {
	return resolveNodes(c.Nodes, c.NodeList, c.Count, cell)
}

// nodeSet is the node set of a crash schedule or a cast: an explicit
// list, or a named selector's progression.
type nodeSet struct {
	list []int
	sel  span
}

// span is the progression first, first+step, … of len nodes.
type span struct{ first, step, len int }

// resolveNodes resolves a selector or an explicit list for one cell; a
// selector is sized by count and clipped to the cell's IDs: "first"
// (0, 1, …), "top" (n−1, n−2, …), "middle" (n/2, n/2+1, …), "odd"
// (1, 3, …) or "even" (0, 2, …).
func resolveNodes(sel string, list []int, count string, cell anondyn.Cell) nodeSet {
	if len(list) > 0 {
		return nodeSet{list: list}
	}
	n := cell.N
	first, step, avail := 0, 1, 0
	switch sel {
	case "first":
		avail = n
	case "top":
		first, step, avail = n-1, -1, n
	case "middle":
		first, avail = n/2, n-n/2
	case "odd":
		first, step, avail = 1, 2, n/2
	case "even":
		step, avail = 2, (n+1)/2
	}
	return nodeSet{sel: span{first, step, min(resolveCount(count, cell), avail)}}
}

// nodes lists the set in selector order.
func (s nodeSet) nodes() []int {
	if s.list != nil {
		return s.list
	}
	var nodes []int
	for k := 0; k < s.sel.len; k++ {
		nodes = append(nodes, s.sel.first+k*s.sel.step)
	}
	return nodes
}

// has reports whether node x is in the span.
func (p span) has(x int) bool {
	d := x - p.first
	q := d / p.step
	return d == q*p.step && q >= 0 && q < p.len
}

// meet returns the smallest node in both spans. Steps are ±1 or 2, so
// it is the larger of the two minima or the node after it.
func (p span) meet(o span) (int, bool) {
	low := func(s span) int { return min(s.first, s.first+(s.len-1)*s.step) }
	x := max(low(p), low(o))
	for _, y := range [2]int{x, x + 1} {
		if p.has(y) && o.has(y) {
			return y, true
		}
	}
	return 0, false
}

// compile adds one cast's strategies into the run's Byzantine map.
func (c *Cast) compile(cell anondyn.Cell, seed int64, byz map[int]anondyn.Strategy) {
	arg := func(i int) float64 {
		if i < len(c.Args) {
			return c.Args[i]
		}
		return 0
	}
	for _, node := range c.set(cell).nodes() {
		switch c.Strategy {
		case "silent":
			byz[node] = anondyn.Silent()
		case "extremist":
			byz[node] = anondyn.Extremist(arg(0))
		case "equivocate":
			low, high := 0.0, 1.0
			if len(c.Args) == 2 {
				low, high = arg(0), arg(1)
			}
			byz[node] = anondyn.Equivocator(low, high)
		case "noise":
			noiseSeed := seed + int64(node)
			if c.Seed != nil {
				noiseSeed = *c.Seed
			}
			byz[node] = anondyn.RandomNoise(noiseSeed)
		case "laggard":
			byz[node] = anondyn.Laggard(arg(0))
		case "mimic":
			byz[node] = anondyn.Mimic(int(arg(0)))
		}
	}
}

// resolveCount resolves the count grammar for one cell.
func resolveCount(count string, cell anondyn.Cell) int {
	switch count {
	case "", "f":
		return cell.F
	case "(n-1)/2":
		return (cell.N - 1) / 2
	}
	v, _ := strconv.Atoi(count) // validated at parse time
	return v
}
