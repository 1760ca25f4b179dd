package anondyn

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"anondyn/internal/adversary"
	"anondyn/internal/fault"
	"anondyn/internal/network"
)

// Adversary constructors. Each returns a ready-to-use message adversary;
// constructors whose parameters can be invalid panic on programmer error
// (they are configuration, not runtime input — prefer failing loudly at
// scenario build time).

// Complete returns the benign adversary that delivers every link every
// round ((1, n−1)-dynaDegree).
func Complete() Adversary { return adversary.NewComplete() }

// Fig1 returns the paper's Figure 1 adversary on 3 nodes: empty graphs
// in odd rounds, the 0↔1, 1↔2 links in even rounds. It satisfies
// (2,1)-dynaDegree but not (1,1)-dynaDegree.
func Fig1() Adversary { return adversary.NewFig1() }

// Rotating returns the adversary that gives every node exactly d
// incoming links per round from a rotating neighbor window
// ((1, d)-dynaDegree with maximal neighbor churn).
func Rotating(d int) Adversary {
	a, err := adversary.NewRotating(d)
	if err != nil {
		panic(err)
	}
	return a
}

// RandomDegree returns the randomized adversary guaranteeing, in every
// aligned block of `block` rounds, d distinct incoming neighbors per
// node, plus each extra link with probability extra per round.
func RandomDegree(block, d int, extra float64, seed int64) Adversary {
	a, err := adversary.NewRandomDegree(block, d, extra, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// Halves returns the Theorem 9 split adversary: two forever-isolated
// complete halves, (1, ⌊n/2⌋−1)-dynaDegree.
func Halves(n int) Adversary {
	a, err := adversary.NewHalves(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Clustered returns the adaptive adversary that keeps value-sorted
// halves isolated and delivers a complete round only every period-th
// round (worst-case rounds ≈ T·p_end shape).
func Clustered(period int) Adversary {
	a, err := adversary.NewClustered(period)
	if err != nil {
		panic(err)
	}
	return a
}

// Starve returns the adaptive adversary that feeds every node only its d
// closest-valued peers each round.
func Starve(d int) Adversary {
	a, err := adversary.NewStarve(d)
	if err != nil {
		panic(err)
	}
	return a
}

// Isolate returns the Corollary 1 adversary: the complete graph minus
// the victim's outgoing links — every receiver misses exactly one
// message per round ((1, n−2)-dynaDegree), yet the victim's input never
// propagates.
func Isolate(victim int) Adversary {
	a, err := adversary.NewIsolate(victim)
	if err != nil {
		panic(err)
	}
	return a
}

// ChaseMin returns the adaptive Corollary 1 adversary that suppresses,
// each round, the outgoing links of a current minimum-value holder.
func ChaseMin() Adversary { return adversary.NewChaseMin() }

// Probabilistic returns the §VII random adversary: each directed link
// is present independently with probability p, redrawn every round.
func Probabilistic(p float64, seed int64) Adversary {
	a, err := adversary.NewProbabilistic(p, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// SparseProbabilistic returns the sparse-native variant of Probabilistic:
// the same per-round Erdős–Rényi distribution rendered with
// geometric-skip sampling in O(pn²) RNG draws instead of n(n−1) — the
// adversary behind the `er2:<p>` registry name. Its RNG stream is a
// versioned contract distinct from the legacy `er` stream: identical
// (p, seed) pairs reproduce identical er2 traces forever, but not the
// traces `er` draws from that seed.
func SparseProbabilistic(p float64, seed int64) Adversary {
	a, err := adversary.NewSparseProbabilistic(p, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// Periodic cycles through the given edge sets round-robin.
func Periodic(name string, sets ...*EdgeSet) Adversary {
	a, err := adversary.NewPeriodic(name, sets...)
	if err != nil {
		panic(err)
	}
	return a
}

// Adversary factory registry. Every sweep surface — the -advs /
// -adversary CLI flags and the declarative spec files — resolves
// adversaries through one grammar:
//
//	complete | halves | chasemin | fig1
//	isolate:<victim>
//	rotating:<d> | clustered:<T> | starve:<d>
//	er:<p>[,<seed>] | er2:<p>[,<seed>]
//	random:<B>,<D>[,<extra>[,<seed>]]
//	starveperiod:<T>
//
// Degree arguments (<d>, <D>) accept the symbolic values "crashdeg"
// (⌊n/2⌋, the DAC threshold) and "byzdeg" (⌊(n+3f)/2⌋, the DBAC
// threshold), resolved per cell so one axis entry tracks the threshold
// across network sizes. Randomized adversaries draw from the run seed
// unless the spec pins an explicit seed.
//
// er and er2 draw the same per-round Erdős–Rényi distribution but are
// distinct, individually stable RNG stream contracts: er is the legacy
// dense one-uniform-per-pair draw (kept byte-compatible so committed
// specs and pinned seeds keep reproducing their exact graphs), er2 is
// the geometric-skip sparse sampler whose cost scales with p·n² — use
// it for large sparse networks. A spec that switches between them
// changes its graphs, never its graph distribution.

// factoryParser builds a factory from the argument part of a
// "name:arg" spec.
type factoryParser func(arg string) (AdversaryFactory, error)

var factoryRegistry = map[string]factoryParser{}

func init() {
	registerBuiltinFactories()
}

// RegisterAdversaryFactory installs a parser for a sweep adversary
// name, making it resolvable by every CLI flag and spec file. It
// panics on a duplicate name (registration is configuration).
func RegisterAdversaryFactory(name string, parse func(arg string) (AdversaryFactory, error)) {
	if _, dup := factoryRegistry[name]; dup {
		panic(fmt.Sprintf("anondyn: adversary factory %q already registered", name))
	}
	factoryRegistry[name] = parse
}

// AdversaryFactoryNames returns the registered sweep adversary names,
// sorted — the vocabulary of the -advs flag and spec files.
func AdversaryFactoryNames() []string {
	names := make([]string, 0, len(factoryRegistry))
	for name := range factoryRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseAdversaryFactory resolves a sweep adversary spec string into a
// seedable factory via the registry.
func ParseAdversaryFactory(spec string) (AdversaryFactory, error) {
	name, arg, _ := strings.Cut(spec, ":")
	parse, ok := factoryRegistry[name]
	if !ok {
		return AdversaryFactory{}, fmt.Errorf("anondyn: unknown adversary %q (known: %s)",
			spec, strings.Join(AdversaryFactoryNames(), ", "))
	}
	f, err := parse(arg)
	if err != nil {
		return AdversaryFactory{}, fmt.Errorf("anondyn: adversary %q: %w", spec, err)
	}
	f.Name = spec
	return f, nil
}

// degreeArg parses an adversary degree argument: an integer literal or
// one of the symbolic per-cell thresholds.
func degreeArg(tok string) (func(c Cell) int, error) {
	switch tok {
	case "crashdeg":
		return func(c Cell) int { return CrashDegree(c.N) }, nil
	case "byzdeg":
		return func(c Cell) int { return ByzDegree(c.N, c.F) }, nil
	}
	d, err := strconv.Atoi(tok)
	if err != nil {
		return nil, fmt.Errorf("degree %q is neither an integer nor crashdeg/byzdeg", tok)
	}
	return func(Cell) int { return d }, nil
}

// noArg wraps a parameterless constructor as a factory parser.
func noArg(mk func(c Cell) Adversary) factoryParser {
	return func(arg string) (AdversaryFactory, error) {
		if arg != "" {
			return AdversaryFactory{}, fmt.Errorf("takes no argument (got %q)", arg)
		}
		return AdversaryFactory{New: func(c Cell, _ int64) Adversary { return mk(c) }}, nil
	}
}

func registerBuiltinFactories() {
	RegisterAdversaryFactory("complete", noArg(func(Cell) Adversary { return Complete() }))
	RegisterAdversaryFactory("halves", func(arg string) (AdversaryFactory, error) {
		f, err := noArg(func(c Cell) Adversary { return Halves(c.N) })(arg)
		f.Check = func(c Cell) error {
			if c.N < 2 {
				return fmt.Errorf("halves needs n ≥ 2 to split (got n=%d)", c.N)
			}
			return nil
		}
		return f, err
	})
	RegisterAdversaryFactory("chasemin", noArg(func(Cell) Adversary { return ChaseMin() }))
	RegisterAdversaryFactory("fig1", func(arg string) (AdversaryFactory, error) {
		if arg != "" {
			return AdversaryFactory{}, fmt.Errorf("takes no argument (got %q)", arg)
		}
		return AdversaryFactory{
			New: func(Cell, int64) Adversary { return Fig1() },
			Check: func(c Cell) error {
				if c.N != 3 {
					return fmt.Errorf("fig1 is defined on exactly 3 nodes (got n=%d)", c.N)
				}
				return nil
			},
		}, nil
	})
	RegisterAdversaryFactory("isolate", func(arg string) (AdversaryFactory, error) {
		victim, err := strconv.Atoi(arg)
		if err != nil {
			return AdversaryFactory{}, fmt.Errorf("isolate needs a victim node: %v", err)
		}
		return AdversaryFactory{
			New: func(Cell, int64) Adversary { return Isolate(victim) },
			Check: func(c Cell) error {
				if victim < 0 || victim >= c.N {
					return fmt.Errorf("victim %d out of range for n=%d", victim, c.N)
				}
				return nil
			},
		}, nil
	})
	RegisterAdversaryFactory("rotating", degreeFactory(Rotating, func(d int) error {
		_, err := adversary.NewRotating(d)
		return err
	}))
	RegisterAdversaryFactory("starve", degreeFactory(Starve, func(d int) error {
		_, err := adversary.NewStarve(d)
		return err
	}))
	RegisterAdversaryFactory("clustered", func(arg string) (AdversaryFactory, error) {
		period, err := strconv.Atoi(arg)
		if err != nil {
			return AdversaryFactory{}, fmt.Errorf("clustered needs an integer period: %v", err)
		}
		if _, err := adversary.NewClustered(period); err != nil {
			return AdversaryFactory{}, err
		}
		return AdversaryFactory{New: func(Cell, int64) Adversary { return Clustered(period) }}, nil
	})
	RegisterAdversaryFactory("er", func(arg string) (AdversaryFactory, error) {
		parts := strings.Split(arg, ",")
		if len(parts) < 1 || len(parts) > 2 {
			return AdversaryFactory{}, fmt.Errorf("er wants er:<p>[,<seed>]")
		}
		p, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return AdversaryFactory{}, fmt.Errorf("er needs a probability: %v", err)
		}
		if _, err := adversary.NewProbabilistic(p, 0); err != nil {
			return AdversaryFactory{}, err
		}
		fixed, hasFixed, err := optionalSeed(parts, 1)
		if err != nil {
			return AdversaryFactory{}, err
		}
		return AdversaryFactory{New: seeded(fixed, hasFixed, func(_ Cell, seed int64) Adversary {
			return Probabilistic(p, seed)
		})}, nil
	})
	RegisterAdversaryFactory("er2", func(arg string) (AdversaryFactory, error) {
		parts := strings.Split(arg, ",")
		if len(parts) < 1 || len(parts) > 2 {
			return AdversaryFactory{}, fmt.Errorf("er2 wants er2:<p>[,<seed>]")
		}
		p, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return AdversaryFactory{}, fmt.Errorf("er2 needs a probability: %v", err)
		}
		if _, err := adversary.NewSparseProbabilistic(p, 0); err != nil {
			return AdversaryFactory{}, err
		}
		fixed, hasFixed, err := optionalSeed(parts, 1)
		if err != nil {
			return AdversaryFactory{}, err
		}
		return AdversaryFactory{New: seeded(fixed, hasFixed, func(_ Cell, seed int64) Adversary {
			return SparseProbabilistic(p, seed)
		})}, nil
	})
	RegisterAdversaryFactory("random", func(arg string) (AdversaryFactory, error) {
		parts := strings.Split(arg, ",")
		if len(parts) < 2 || len(parts) > 4 {
			return AdversaryFactory{}, fmt.Errorf("random wants random:<B>,<D>[,<extra>[,<seed>]]")
		}
		block, err := strconv.Atoi(parts[0])
		if err != nil {
			return AdversaryFactory{}, fmt.Errorf("block %q: %v", parts[0], err)
		}
		degree, err := degreeArg(parts[1])
		if err != nil {
			return AdversaryFactory{}, err
		}
		extra := 0.05
		if len(parts) >= 3 {
			if extra, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return AdversaryFactory{}, fmt.Errorf("extra-link probability %q: %v", parts[2], err)
			}
		}
		fixed, hasFixed, err := optionalSeed(parts, 3)
		if err != nil {
			return AdversaryFactory{}, err
		}
		if _, err := adversary.NewRandomDegree(block, 0, extra, 0); err != nil {
			return AdversaryFactory{}, err // the degree is checked per cell
		}
		return AdversaryFactory{
			New: seeded(fixed, hasFixed, func(c Cell, seed int64) Adversary {
				return RandomDegree(block, degree(c), extra, seed)
			}),
			Check: func(c Cell) error {
				_, err := adversary.NewRandomDegree(block, degree(c), extra, 0)
				return err
			},
		}, nil
	})
	RegisterAdversaryFactory("starveperiod", func(arg string) (AdversaryFactory, error) {
		period, err := strconv.Atoi(arg)
		if err != nil || period < 1 {
			return AdversaryFactory{}, fmt.Errorf("starveperiod needs a period ≥ 1 (got %q)", arg)
		}
		return AdversaryFactory{New: func(c Cell, _ int64) Adversary {
			// T−1 empty rounds, then one complete round: every phase
			// needs a full period (experiment E4, §VII worst case).
			sets := make([]*EdgeSet, period)
			for i := 0; i < period-1; i++ {
				sets[i] = NewEdgeSet(c.N)
			}
			sets[period-1] = CompleteGraph(c.N)
			return Periodic(fmt.Sprintf("starve%d", period), sets...)
		}}, nil
	})
}

// degreeFactory builds the parser for single-degree-argument
// constructors (rotating, starve); check rejects a cell whose resolved
// degree the constructor would refuse.
func degreeFactory(mk func(d int) Adversary, check func(d int) error) factoryParser {
	return func(arg string) (AdversaryFactory, error) {
		degree, err := degreeArg(arg)
		if err != nil {
			return AdversaryFactory{}, err
		}
		return AdversaryFactory{
			New:   func(c Cell, _ int64) Adversary { return mk(degree(c)) },
			Check: func(c Cell) error { return check(degree(c)) },
		}, nil
	}
}

// seeded is the New of a factory over a seeded constructor: mk with the
// run seed, or with the fixed seed when the factory's spec names one.
// A fixed-seed product is wrapped so that Reseed rewinds it to that
// seed too, which keeps the renewal contract of AdversaryFactory.New:
// every run of such a cell renders the fixed seed's stream.
func seeded(fixed int64, hasFixed bool, mk func(c Cell, seed int64) Adversary) func(Cell, int64) Adversary {
	if !hasFixed {
		return mk
	}
	return func(c Cell, _ int64) Adversary {
		return fixedSeed{mk(c, fixed).(seededAdversary), fixed}
	}
}

// seededAdversary is what the seeded constructors return: the engine's
// in-place and oblivious seams plus Reseed.
type seededAdversary interface {
	InPlaceAdversary
	AdversaryReseeder
	Oblivious() bool
}

// fixedSeed is a seeded adversary pinned to one seed. Embedding keeps
// Name, Edges, EdgesInto and Oblivious promoted, so the engine takes
// the product's own fast paths.
type fixedSeed struct {
	seededAdversary
	seed int64
}

// Reseed rewinds to the pinned seed, whatever the run's.
func (a fixedSeed) Reseed(int64) { a.seededAdversary.Reseed(a.seed) }

// optionalSeed reads parts[i] as a pinned adversary seed when present.
func optionalSeed(parts []string, i int) (seed int64, ok bool, err error) {
	if len(parts) <= i {
		return 0, false, nil
	}
	seed, err = strconv.ParseInt(parts[i], 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("seed %q: %v", parts[i], err)
	}
	return seed, true, nil
}

// Graph construction helpers (re-exports from the network layer).

// NewEdgeSet returns an empty directed edge set over n nodes.
func NewEdgeSet(n int) *EdgeSet { return network.NewEdgeSet(n) }

// CompleteGraph returns the complete directed graph on n nodes.
func CompleteGraph(n int) *EdgeSet { return network.Complete(n) }

// MaxDynaDegree returns the largest D for which the trace satisfies
// (T, D)-dynaDegree.
func MaxDynaDegree(tr Trace, faultFree []int, t int) int {
	return network.MaxDynaDegree(tr, faultFree, t)
}

// MinTForDegree returns the smallest T for which the trace satisfies
// (T, D)-dynaDegree, or 0 if none.
func MinTForDegree(tr Trace, faultFree []int, d int) int {
	return network.MinTForDegree(tr, faultFree, d)
}

// Prior stability properties (§II-B), for comparing what a trace
// provides against the conditions of earlier work.

// EveryRoundRooted reports the rooted-spanning-tree property of
// [10],[17],[38]: every round's graph has a node reaching all others.
func EveryRoundRooted(tr Trace) bool { return network.EveryRoundRooted(tr) }

// TIntervalConnected reports the T-interval connectivity of [22]: every
// T-round window keeps a stable strongly-connected subgraph.
func TIntervalConnected(tr Trace, t int) bool { return network.TIntervalConnected(tr, t) }

// Byzantine strategy constructors.

// Silent returns the Byzantine strategy that never sends.
func Silent() Strategy { return fault.Silent{} }

// Extremist returns the Byzantine strategy claiming the given value at a
// far-future phase to everyone.
func Extremist(value float64) Strategy { return fault.Extremist{Value: value} }

// Equivocator returns the two-faced strategy: low to the lower half of
// receiver IDs, high to the upper half.
func Equivocator(low, high float64) Strategy { return fault.Equivocator{Low: low, High: high} }

// SplitBrain returns the Theorem 10 equivocation: valueA towards
// receivers selected by inA, valueB towards the rest.
func SplitBrain(inA func(receiver int) bool, valueA, valueB float64) Strategy {
	return fault.SplitBrain{InA: inA, ValueA: valueA, ValueB: valueB}
}

// RandomNoise returns the strategy sending plausible random values.
func RandomNoise(seed int64) Strategy { return fault.NewRandomNoise(seed) }

// Laggard returns the strategy replaying phase-0 state forever.
func Laggard(value float64) Strategy { return fault.Laggard{Value: value} }

// Mimic returns the strategy copying the public state of a fault-free
// node.
func Mimic(target int) Strategy { return fault.Mimic{Target: target} }

// ByzSplit bundles the full Theorem 10 construction for n, f: the
// adversary, the Byzantine node set with their SplitBrain strategies,
// and the inputs. See Scenario usage in examples/impossibility.
type ByzSplit struct {
	layout *adversary.ByzSplitLayout
}

// NewByzSplit computes the Theorem 10 layout (requires n ≥ 3f+1, f ≥ 1).
func NewByzSplit(n, f int) (*ByzSplit, error) {
	l, err := adversary.NewByzSplitLayout(n, f)
	if err != nil {
		return nil, err
	}
	return &ByzSplit{layout: l}, nil
}

// Adversary returns the two-group message adversary of the construction.
func (b *ByzSplit) Adversary() Adversary { return b.layout.Adversary() }

// Byzantine returns the node→strategy map: every Byzantine node
// equivocates input 0 towards A-receivers and 1 towards B-receivers.
func (b *ByzSplit) Byzantine() map[int]Strategy {
	m := make(map[int]Strategy, len(b.layout.Byzantine))
	for _, i := range b.layout.Byzantine {
		m[i] = fault.SplitBrain{InA: b.layout.SendsToA, ValueA: 0, ValueB: 1}
	}
	return m
}

// Inputs returns the construction's input vector (0 for the low block, 1
// for the high block).
func (b *ByzSplit) Inputs() []float64 {
	in := make([]float64, b.layout.N)
	for i := range in {
		in[i] = b.layout.Input(i)
	}
	return in
}

// AReceivers returns the fault-free nodes hearing only group A (forced
// towards 0); BReceivers those hearing only group B (forced towards 1).
func (b *ByzSplit) AReceivers() []int { return b.layout.AReceivers }

// BReceivers returns the group-B-facing fault-free nodes.
func (b *ByzSplit) BReceivers() []int { return b.layout.BReceivers }

// Degree returns the per-round in-degree every fault-free node gets —
// exactly one below the ⌊(n+3f)/2⌋ threshold of Theorem 10.
func (b *ByzSplit) Degree() int { return b.layout.MinFaultFreeDegree() }
