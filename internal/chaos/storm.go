package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"anondyn"
)

// Plan is the fleet realization: which template and which correlation
// group every node belongs to. It is a pure function of the stress
// seed alone — the fleet is the same in every Monte-Carlo run; only
// the storm realization varies with the run seed.
type Plan struct {
	// N is the fleet size.
	N int
	// Template holds each node's template index; nil when the fleet
	// declares at most one template.
	Template []int
	// Group holds each node's correlation group; nil when ungrouped.
	// Groups are contiguous ID blocks (group g = IDs [g·n/G, (g+1)·n/G)),
	// the same Clustered-style partition the adversary layer uses.
	Group []int
}

// Plan materializes the fleet (template draws consume the fleet
// stream; see stream.go).
func (s *Stress) Plan() *Plan {
	n := s.Fleet.TotalNodes
	p := &Plan{N: n}
	if len(s.Fleet.Templates) > 1 {
		total := 0
		for _, t := range s.Fleet.Templates {
			total += t.Weight
		}
		rng := newStream(mix(s.Seed, saltFleet))
		p.Template = make([]int, n)
		for i := range p.Template {
			draw := rng.intn(total)
			for j, t := range s.Fleet.Templates {
				if draw -= t.Weight; draw < 0 {
					p.Template[i] = j
					break
				}
			}
		}
	}
	if g := s.Fleet.Groups; g > 0 {
		p.Group = make([]int, n)
		for i := range p.Group {
			p.Group[i] = i * g / n
		}
	}
	return p
}

// TimelineEntry is one rendered storm occurrence — a row of the
// report's storm timeline.
type TimelineEntry struct {
	Round  int    `json:"round"`
	Kind   string `json:"kind"`
	Nodes  int    `json:"nodes"`
	Detail string `json:"detail,omitempty"`
}

// Storm is one run's materialized chaos schedule: the crash schedule
// and Byzantine cast it installs on the scenario, the connectivity
// windows its adversary wrapper enforces, and the rendered timeline.
type Storm struct {
	// Crashes is the per-node crash schedule the events produced.
	Crashes map[int]anondyn.Crash
	// Byzantine is the per-node strategy cast.
	Byzantine map[int]anondyn.Strategy
	// Survivors counts the nodes no event faulted.
	Survivors int
	// Timeline lists every occurrence in ascending round order.
	Timeline []TimelineEntry

	n       int
	cuts    []cutWindow
	starves []starveWindow
}

// cutWindow suppresses every link crossing the cut during [from, until).
type cutWindow struct {
	from, until int
	inCut       []bool // per node
}

// starveWindow drops each surviving link with probability rate per
// round during [from, until), from its own seeded stream.
type starveWindow struct {
	from, until int
	rate        float64
	seed        uint64
}

// CompileStorm materializes the chaos schedule for one run. The storm
// is a pure function of (stress block, run seed) — see stream.go for
// the draw-order contract — so the scenario a worker assembles for
// global run k is identical on every machine.
func (s *Stress) CompileStorm(runSeed int64) *Storm {
	n := s.Fleet.TotalNodes
	plan := s.Plan()
	rng := newStream(mix2(s.Seed, runSeed, saltStorm))
	st := &Storm{
		n:         n,
		Crashes:   make(map[int]anondyn.Crash),
		Byzantine: make(map[int]anondyn.Strategy),
	}
	faulted := make([]bool, n)
	crash := func(node, round int, mode string) {
		faulted[node] = true
		if mode == "silent" {
			st.Crashes[node] = anondyn.CrashSilent(round)
		} else {
			st.Crashes[node] = anondyn.CrashAt(round)
		}
	}
	for i := range s.Events {
		e := &s.Events[i]
		switch e.Kind {
		case "crash":
			victims := pickNodes(rng, faulted, e.Count)
			for _, v := range victims {
				crash(v, e.Round, e.Mode)
			}
			st.note(e.Round, e.Kind, len(victims), "mode "+modeName(e.Mode))
		case "crash-storm":
			total := 0
			for r := e.Round; r < e.Round+e.Duration; r++ {
				for node := 0; node < n; node++ {
					if faulted[node] {
						continue
					}
					if rng.float64() < e.Rate {
						crash(node, r, e.Mode)
						total++
					}
				}
			}
			st.note(e.Round, e.Kind, total,
				fmt.Sprintf("rate %g over rounds %d-%d", e.Rate, e.Round, e.Round+e.Duration-1))
		case "byzantine":
			victims := pickNodes(rng, faulted, e.Count)
			for _, v := range victims {
				st.Byzantine[v] = buildStrategy(e, runSeed, v)
			}
			st.note(0, e.Kind, len(victims), "strategy "+e.Strategy)
		case "group-outage":
			groups := pickGroups(rng, s.Fleet.Groups, e)
			total := 0
			for node := 0; node < n; node++ {
				if faulted[node] || !containsGroup(groups, plan.Group[node]) {
					continue
				}
				crash(node, e.Round, e.Mode)
				total++
			}
			st.note(e.Round, e.Kind, total, fmt.Sprintf("groups %v", groups))
		case "cascade":
			size, round := e.Count, e.Round
			factor := e.Factor
			if factor == 0 {
				factor = 2
			}
			for w := 0; w < e.Waves; w++ {
				victims := pickNodes(rng, faulted, size)
				for _, v := range victims {
					crash(v, round, e.Mode)
				}
				st.note(round, e.Kind, len(victims), fmt.Sprintf("wave %d/%d", w+1, e.Waves))
				round += e.Spread
				// A wave never needs more than n victims; saturating
				// there keeps a long cascade's size from overflowing.
				if next := math.Ceil(float64(size) * factor); next < float64(n) {
					size = int(next)
				} else {
					size = n
				}
			}
		case "partition":
			groups := pickGroups(rng, s.Fleet.Groups, e)
			inCut := make([]bool, n)
			total := 0
			for node := 0; node < n; node++ {
				if containsGroup(groups, plan.Group[node]) {
					inCut[node] = true
					total++
				}
			}
			st.cuts = append(st.cuts, cutWindow{from: e.Round, until: e.Round + e.Duration, inCut: inCut})
			st.note(e.Round, e.Kind, total,
				fmt.Sprintf("groups %v cut off for rounds %d-%d", groups, e.Round, e.Round+e.Duration-1))
		case "starve":
			seed := rng.next()
			st.starves = append(st.starves, starveWindow{from: e.Round, until: e.Round + e.Duration, rate: e.Rate, seed: seed})
			st.note(e.Round, e.Kind, n,
				fmt.Sprintf("drop rate %g over rounds %d-%d", e.Rate, e.Round, e.Round+e.Duration-1))
		}
	}
	st.Survivors = n - len(st.Crashes) - len(st.Byzantine)
	sort.SliceStable(st.Timeline, func(i, j int) bool { return st.Timeline[i].Round < st.Timeline[j].Round })
	return st
}

// note appends one timeline entry.
func (st *Storm) note(round int, kind string, nodes int, detail string) {
	st.Timeline = append(st.Timeline, TimelineEntry{Round: round, Kind: kind, Nodes: nodes, Detail: detail})
}

func modeName(mode string) string {
	if mode == "" {
		return "clean"
	}
	return mode
}

// pickNodes draws up to count victims from the not-yet-faulted nodes —
// a partial Fisher–Yates over the eligible IDs in ascending order —
// and marks them faulted. Fewer eligible nodes than count yields them
// all.
func pickNodes(rng *stream, faulted []bool, count int) []int {
	eligible := make([]int, 0, len(faulted))
	for i, f := range faulted {
		if !f {
			eligible = append(eligible, i)
		}
	}
	if count > len(eligible) {
		count = len(eligible)
	}
	for i := 0; i < count; i++ {
		j := i + rng.intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
		faulted[eligible[i]] = true
	}
	return eligible[:count]
}

// pickGroups resolves an event's victim groups: the explicit list, or
// Count groups drawn by partial Fisher–Yates over the group IDs.
// Returned ascending for stable timeline rendering.
func pickGroups(rng *stream, total int, e *Event) []int {
	if len(e.Groups) > 0 {
		out := append([]int(nil), e.Groups...)
		sort.Ints(out)
		return out
	}
	ids := make([]int, total)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < e.Count; i++ {
		j := i + rng.intn(total-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	out := ids[:e.Count]
	sort.Ints(out)
	return out
}

func containsGroup(groups []int, g int) bool {
	for _, x := range groups {
		if x == g {
			return true
		}
	}
	return false
}

// buildStrategy constructs one Byzantine node's strategy, mirroring the
// spec format's cast semantics (noise seeds derive from run seed +
// node ID).
func buildStrategy(e *Event, runSeed int64, node int) anondyn.Strategy {
	arg := func(i int) float64 {
		if i < len(e.Args) {
			return e.Args[i]
		}
		return 0
	}
	switch e.Strategy {
	case "extremist":
		return anondyn.Extremist(arg(0))
	case "equivocate":
		low, high := 0.0, 1.0
		if len(e.Args) == 2 {
			low, high = arg(0), arg(1)
		}
		return anondyn.Equivocator(low, high)
	case "noise":
		return anondyn.RandomNoise(runSeed + int64(node))
	case "laggard":
		return anondyn.Laggard(arg(0))
	case "mimic":
		return anondyn.Mimic(int(arg(0)))
	default: // "silent" — validated at parse time
		return anondyn.Silent()
	}
}

// Inputs generates one run's input vector from the fleet templates:
// random-template nodes draw from the input stream, the other kinds
// are deterministic functions of the node position.
func (s *Stress) Inputs(runSeed int64) []float64 {
	n := s.Fleet.TotalNodes
	plan := s.Plan()
	rng := newStream(mix2(s.Seed, runSeed, saltInputs))
	out := make([]float64, n)
	for i := range out {
		input := ""
		if plan.Template != nil {
			input = s.Fleet.Templates[plan.Template[i]].Input
		} else if len(s.Fleet.Templates) == 1 {
			input = s.Fleet.Templates[0].Input
		}
		name, argStr, _ := strings.Cut(input, ":")
		switch name {
		case "", "random":
			out[i] = rng.float64()
		case "spread":
			if n > 1 {
				out[i] = float64(i) / float64(n-1)
			}
		case "zero":
			out[i] = 0
		case "one":
			out[i] = 1
		case "value":
			v, _ := strconv.ParseFloat(argStr, 64) // validated at parse time
			out[i] = v
		}
	}
	return out
}
