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

// anonRun is one side of TestAnonymityRelabelProperty: a DAC network of
// n nodes with its inputs, ports (nil: identity), crash schedule and
// adversary, driven through core.PopulationOf or core.PerNode. Its run
// keeps the trace, the E(t) the image replays.
type anonRun struct {
	inputs          []float64
	ports           network.Ports
	crashes         fault.Schedule
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
	dacs := must(core.NewDACPopulation(r.pEnd, core.CrashQuorum(n), false, selfPort, r.inputs, nil))
	procs := make([]core.Process, n)
	for i := range procs {
		procs[i] = &dacs[i]
	}
	cfg := Config{
		N: n, F: len(r.crashes), Procs: procs, Adversary: r.adv, Crashes: r.crashes, Ports: r.ports,
		MaxRounds: r.maxRounds, ForceCSR: r.forceCSR, KeepTrace: true,
	}
	eng := new(Engine)
	pop := core.PerNode(procs)
	if r.asPopulation {
		pop = core.PopulationOf(dacs)
	}
	if err := eng.ResetPopulation(cfg, pop); err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

// relabel is the π-image of r's configuration: node π(i) gets node i's
// input and crash (its DeliverTo list mapped through π), numbering
// π(v) gives π(u) the port v gave u, and the adversary replays the
// recorded E(t) with every link u→v moved to π(u)→π(v).
func relabel(t *testing.T, r anonRun, perm []int, recorded []*network.EdgeSet) anonRun {
	t.Helper()
	n := len(r.inputs)
	img := anonRun{pEnd: r.pEnd, maxRounds: r.maxRounds, inputs: make([]float64, n), ports: make(network.Ports, n)}
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

// TestAnonymityRelabelProperty (ROADMAP 16(d), DAC part): nodes are
// anonymous (§II-A), so relabelling them by a permutation π — inputs,
// crash schedule, E(t) edge by edge and each node's numbering
// conjugated with them — must give the π-image of the run: the same
// Rounds, Decided and message counts, and Outputs[π(i)] ==
// Outputs[i] (DecideRound likewise). Draws cover n from 5 to 130; er,
// er2, rotating and the value-reading ChaseMin; identity or random
// ports; clean, silent and partial crashes; ForceCSR flipped between
// the two runs; population or adapter on each side. An identity-port
// original goes by row (dense bitmap rows or CSR rows), while its image
// has non-identity numberings and takes the general gather over the
// replayed dense sets, so the property also holds the two paths
// against each other.
func TestAnonymityRelabelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	identity, decided := 0, 0
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
		} else {
			identity++
		}
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
		if want.Decided {
			decided++
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
	}
	if identity < 40 || decided < 60 {
		t.Errorf("%d identity-port originals and %d decided runs of 120: property nearly vacuous", identity, decided)
	}
}
