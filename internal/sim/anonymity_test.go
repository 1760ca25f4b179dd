package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// anonRun is one side of TestAnonymityRelabelProperty: a network of n
// nodes with its inputs, ports (nil: identity), crash schedule,
// Byzantine nodes and adversary. A DAC network (algo "") is driven
// through core.PopulationOf or core.PerNode, a DBAC one ("dbac"), built
// for f faults, through core.DBACPopulationOf or core.PerNode, and a
// piggyback one ("dbac-pb") through core.PerNode. Its run keeps the
// trace, the E(t) the image replays.
type anonRun struct {
	algo            string
	f               int
	inputs          []float64
	ports           network.Ports
	crashes         fault.Schedule
	byz             map[int]fault.Strategy
	adv             adversary.Adversary
	asPopulation    bool
	forceCSR        bool
	pEnd, maxRounds int
}

func (r anonRun) run(t *testing.T) *Result {
	t.Helper()
	n := len(r.inputs)
	selfPort := func(i int) int { return i }
	if r.ports != nil {
		selfPort = func(i int) int { return r.ports[i].Port(i) }
	}
	procs := make([]core.Process, n)
	var pop core.Population
	if r.algo == "" {
		dacs := must(core.NewDACPopulation(r.pEnd, core.CrashQuorum(n), false, selfPort, r.inputs, nil))
		for i := range procs {
			procs[i] = &dacs[i]
		}
		pop = core.PerNode(procs)
		if r.asPopulation {
			pop = core.PopulationOf(dacs)
		}
	} else {
		skip := func(i int) bool { _, byz := r.byz[i]; return byz }
		var dbacs []core.DBAC
		if r.algo == "dbac" {
			dbacs = must(core.NewDBACPopulation(r.f, r.pEnd, core.ByzQuorum(n, r.f), selfPort, r.inputs, skip))
		}
		for i, x := range r.inputs {
			switch {
			case skip(i):
			case r.algo == "dbac":
				procs[i] = &dbacs[i]
			default:
				procs[i] = must(core.NewDBACPiggybackPhases(n, r.f, selfPort(i), 2, r.pEnd, x))
			}
		}
		pop = core.PerNode(procs)
		if r.asPopulation && dbacs != nil {
			pop = core.DBACPopulationOf(dbacs)
		}
	}
	cfg := Config{
		N: n, F: max(r.f, len(r.crashes)), Procs: procs, Adversary: r.adv, Crashes: r.crashes, Byzantine: r.byz,
		Ports: r.ports, MaxRounds: r.maxRounds, ForceCSR: r.forceCSR, KeepTrace: true,
	}
	eng := new(Engine)
	if err := eng.ResetPopulation(cfg, pop); err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

// relabel is the π-image of r's configuration: node π(i) gets node i's
// input, crash (its DeliverTo list mapped through π) and Byzantine
// strategy (relabelled: it sends π(v) what node i sent v), numbering
// π(v) gives π(u) the port v gave u, and the adversary replays the
// recorded E(t) with every link u→v moved to π(u)→π(v).
func relabel(t *testing.T, r anonRun, perm []int, recorded []*network.EdgeSet) anonRun {
	t.Helper()
	n := len(r.inputs)
	img := anonRun{
		algo: r.algo, f: r.f, pEnd: r.pEnd, maxRounds: r.maxRounds,
		inputs: make([]float64, n), ports: make(network.Ports, n),
	}
	for i, x := range r.inputs {
		img.inputs[perm[i]] = x
	}
	for v := 0; v < n; v++ {
		ports := make([]int, n)
		for u := 0; u < n; u++ {
			port := u
			if r.ports != nil {
				port = r.ports[v].Port(u)
			}
			ports[perm[u]] = port
		}
		img.ports[perm[v]] = must(network.NumberingFromPerm(ports))
	}
	if r.crashes != nil {
		img.crashes = fault.Schedule{}
		for i, c := range r.crashes {
			mapped := c
			if c.DeliverTo != nil {
				mapped.DeliverTo = make([]int, len(c.DeliverTo))
				for k, to := range c.DeliverTo {
					mapped.DeliverTo[k] = perm[to]
				}
			}
			img.crashes[perm[i]] = mapped
		}
	}
	if r.byz != nil {
		img.byz = map[int]fault.Strategy{}
		for i, strat := range r.byz {
			img.byz[perm[i]] = relabelled{inner: strat, self: i, perm: perm, out: make([]*core.Message, n)}
		}
	}
	events := make([]trace.Event, len(recorded))
	for round, edges := range recorded {
		links := edges.Edges()
		for k, l := range links {
			links[k] = [2]int{perm[l[0]], perm[l[1]]}
		}
		events[round] = trace.Event{Kind: trace.KindRound, Round: round, Edges: links}
	}
	img.adv = must(trace.NewReplay(n, events))
	return img
}

// TestAnonymityRelabelProperty (ROADMAP 16(d)): nodes are anonymous
// (§II-A), so relabelling them by a permutation π — inputs, crash
// schedule, Byzantine nodes, E(t) edge by edge and each node's
// numbering conjugated with them — must give the π-image of the run:
// the same Rounds, Decided and message counts, and Outputs[π(i)] ==
// Outputs[i] (DecideRound likewise). DAC draws cover n from 5 to 130;
// er, er2, rotating and the value-reading ChaseMin; identity or random
// ports; clean, silent and partial crashes; ForceCSR flipped between
// the two runs; population or adapter on each side. DBAC (population or
// adapter) and its piggyback variant run fault-free or with Extremist,
// Laggard, Equivocator or SplitBrain nodes; in the image each runs
// relabelled, so Equivocator's halves and SplitBrain's groups hold the
// images of the original's receivers. An identity-port original goes by
// row (word rounds at n ≤ 64 on a dense set, Byzantine senders
// included; dense bitmap rows or CSR rows otherwise), while its image
// has non-identity numberings and takes the general gather over the
// replayed dense sets, so the property also holds the paths against
// each other.
func TestAnonymityRelabelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	identity, words, decided := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		n := []int{5, 9, 17, 33, 70, 130}[rng.Intn(6)]
		seed := rng.Int63()
		orig := anonRun{
			pEnd: 2 + rng.Intn(4), maxRounds: 150, inputs: make([]float64, n),
			asPopulation: rng.Intn(2) == 0, forceCSR: rng.Intn(2) == 0,
		}
		for i := range orig.inputs {
			orig.inputs[i] = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			orig.ports = network.RandomPorts(n, newRand(seed))
		}
		kind := drawAnonAdversary(rng, &orig, seed)
		if rng.Intn(3) > 0 {
			orig.crashes = fault.Schedule{}
			for k := 1 + rng.Intn(n/3); k > 0; k-- {
				node, round := rng.Intn(n), rng.Intn(8)
				switch rng.Intn(3) {
				case 0:
					orig.crashes[node] = fault.CrashAt(round)
				case 1:
					orig.crashes[node] = fault.CrashSilent(round)
				default:
					orig.crashes[node] = fault.CrashPartial(round, rng.Intn(n), rng.Intn(n))
				}
			}
		}
		label := fmt.Sprintf("trial %d: n=%d/%s/identityPorts=%v/crashes=%d/csr=%v/population=%v",
			trial, n, kind, orig.ports == nil, len(orig.crashes), orig.forceCSR, orig.asPopulation)
		if checkRelabel(t, rng, orig, label) {
			decided++
		}
		if orig.ports == nil {
			identity++
			if n <= 64 && !orig.forceCSR {
				words++ // word rounds, against the image's general gather
			}
		}
	}
	if identity < 40 || decided < 60 {
		t.Errorf("DAC: %d identity-port originals and %d decided runs of 120: property nearly vacuous", identity, decided)
	}

	byzantine, dbacDecided, byzWords := 0, 0, 0
	for trial := 0; trial < 100; trial++ {
		n := []int{6, 9, 17, 33, 70}[rng.Intn(5)]
		seed := rng.Int63()
		orig := anonRun{
			algo: []string{"dbac", "dbac-pb"}[rng.Intn(2)], f: rng.Intn((n-1)/5 + 1),
			pEnd: 2 + rng.Intn(4), maxRounds: 150, inputs: make([]float64, n), forceCSR: rng.Intn(2) == 0,
			asPopulation: rng.Intn(2) == 0,
		}
		for i := range orig.inputs {
			orig.inputs[i] = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			orig.ports = network.RandomPorts(n, newRand(seed))
		}
		kind := drawAnonAdversary(rng, &orig, seed)
		if orig.f > 0 && rng.Intn(2) == 0 {
			orig.byz = map[int]fault.Strategy{}
			for _, i := range rng.Perm(n)[:orig.f] {
				switch rng.Intn(4) {
				case 0:
					orig.byz[i] = fault.Extremist{Value: float64(rng.Intn(2))}
				case 1:
					orig.byz[i] = fault.Laggard{Value: rng.Float64()}
				case 2:
					orig.byz[i] = fault.Equivocator{Low: 0, High: 1}
				default:
					orig.byz[i] = fault.SplitBrain{InA: func(v int) bool { return v%3 == 0 }, ValueA: 0.2, ValueB: 0.9}
				}
			}
			byzantine++
		}
		label := fmt.Sprintf("%s trial %d: n=%d/f=%d/%s/identityPorts=%v/byzantine=%d/csr=%v/population=%v",
			orig.algo, trial, n, orig.f, kind, orig.ports == nil, len(orig.byz), orig.forceCSR, orig.asPopulation)
		if checkRelabel(t, rng, orig, label) {
			dbacDecided++
		}
		if orig.ports == nil && n <= 64 && !orig.forceCSR {
			words++
			if orig.byz != nil {
				byzWords++ // Byzantine word rounds, against the image's general gather
			}
		}
	}
	if byzantine < 25 || dbacDecided < 35 {
		t.Errorf("DBAC: %d runs with Byzantine nodes and %d decided runs of 100: property nearly vacuous", byzantine, dbacDecided)
	}
	if words < 30 || byzWords < 12 {
		t.Errorf("%d identity-port originals on dense sets at n ≤ 64, %d of them with Byzantine nodes: the word round is nearly unchecked",
			words, byzWords)
	}
	t.Logf("DAC: %d identity-port originals, %d decided; DBAC: %d with Byzantine nodes, %d decided; %d originals in word rounds, %d with Byzantine nodes",
		identity, decided, byzantine, dbacDecided, words, byzWords)
}

// relabelled runs a Byzantine strategy in the π-image of a run: as node
// self of the original, sending receiver π(v) what it sends v there. The
// strategies the test draws read no state off the view, so the image's
// view serves them as it is; what they read is the receiver's ID
// (Equivocator's halves, SplitBrain's groups), and that is what the
// wrapper maps.
type relabelled struct {
	inner fault.Strategy
	self  int
	perm  []int
	out   []*core.Message // the inner strategy's messages, by original receiver
}

func (r relabelled) Name() string { return "relabelled " + r.inner.Name() }

func (r relabelled) MessagesInto(round, _ int, view fault.View, msgs []core.Message, out []*core.Message) {
	r.inner.MessagesInto(round, r.self, view, msgs, r.out)
	for v, m := range r.out {
		out[r.perm[v]] = m
	}
}

func (r relabelled) Messages(round, self int, view fault.View) []*core.Message {
	msgs, out := make([]core.Message, view.N()), make([]*core.Message, view.N())
	r.MessagesInto(round, self, view, msgs, out)
	return out
}

// drawAnonAdversary gives orig a drawn adversary — er, er2, rotating or
// ChaseMin — and returns its kind.
func drawAnonAdversary(rng *rand.Rand, orig *anonRun, seed int64) string {
	n := len(orig.inputs)
	kind := []string{"er", "er2", "rotating", "chaseMin"}[rng.Intn(4)]
	switch kind {
	case "er":
		orig.adv = must(adversary.NewProbabilistic(0.2+0.6*rng.Float64(), seed))
	case "er2":
		orig.adv = must(adversary.NewSparseProbabilistic(min(1, 8/float64(n)), seed))
	case "rotating":
		orig.adv = must(adversary.NewRotating([]int{1 + rng.Intn(4), n / 2}[rng.Intn(2)]))
	default:
		orig.adv = adversary.NewChaseMin()
	}
	return kind
}

// checkRelabel runs orig and its image under a drawn π (the image on a
// drawn side, population or adapter, and on the other ForceCSR setting)
// and fails t unless the image is the π-image of the original. It
// reports whether the original decided.
func checkRelabel(t *testing.T, rng *rand.Rand, orig anonRun, label string) bool {
	t.Helper()
	n := len(orig.inputs)
	want := orig.run(t)
	perm := rng.Perm(n)
	img := relabel(t, orig, perm, want.Trace)
	img.asPopulation, img.forceCSR = rng.Intn(2) == 0, !orig.forceCSR
	got := img.run(t)

	if got.Rounds != want.Rounds || got.Decided != want.Decided ||
		got.MessagesDelivered != want.MessagesDelivered || got.MessagesLost != want.MessagesLost {
		t.Fatalf("%s: image ran %d rounds (decided %v, %d delivered, %d lost), original %d (%v, %d, %d)", label,
			got.Rounds, got.Decided, got.MessagesDelivered, got.MessagesLost,
			want.Rounds, want.Decided, want.MessagesDelivered, want.MessagesLost)
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d nodes decided in the image, %d in the original", label, len(got.Outputs), len(want.Outputs))
	}
	for i, out := range want.Outputs {
		if o, ok := got.Outputs[perm[i]]; !ok || o != out || got.DecideRound[perm[i]] != want.DecideRound[i] {
			t.Fatalf("%s: node %d decided %v in round %d, its image %d decided %v (%v) in round %d", label,
				i, out, want.DecideRound[i], perm[i], o, ok, got.DecideRound[perm[i]])
		}
	}
	return want.Decided
}
