package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/fault"
	"anondyn/internal/network"
	"anondyn/internal/trace"
)

// TestDeliveryEquivalenceProperty is the round loop's oracle test:
// across randomized sparse, dense and faulted scenarios, the fast paths
// — the word, CSR and dense-row rounds, the one gather behind every
// other round (crash rounds and Byzantine senders included),
// lazy/incremental view maintenance, and the lost count each arm folds
// as it goes — must together produce
// byte-identical Results (trace, MessagesLost/Delivered/Oversized,
// BytesDelivered, outputs) AND an identical per-delivery event stream
// (delivery order is visible through the recorder) compared to the
// test-only reference oracle (referenceStep: port-loop gather, eager
// per-round view refresh, one DeliverAll call per message, pairwise
// lost count). The last trials are clean draws past 64 nodes (no
// Byzantine node, no partial crash, no shuffle), whose plain dense runs
// take the dense-row arm.
func TestDeliveryEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words, csr, rows, gatherByz, gatherCrash := 0, 0, 0, 0, 0 // plain runs (two a trial) that took the arm
	// Sizes straddle the 64-bit word boundary on purpose: the word-wise
	// path must be exact in the multi-word regime too.
	for trial := 0; trial < 72; trial++ {
		clean := trial >= 60
		n := []int{3, 7, 13, 33, 63, 64, 65, 70}[rng.Intn(8)]
		if clean {
			n = []int{65, 70, 100, 129, 200, 257}[rng.Intn(6)]
		}
		seed := rng.Int63()
		cfg := func() Config { return randomDeliveryConfig(t, n, seed, clean) }

		refCfg, refRec := cfg(), trace.NewRecorder()
		refCfg.Hooks.Recorder = refRec
		refEng, err := NewEngine(refCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := referenceRunRounds(refEng, 25)

		wwCfg, wwRec := cfg(), trace.NewRecorder()
		wwCfg.Hooks.Recorder = wwRec
		// Half the trials force the CSR scratch: the sparse gather paths
		// (CSR-backed InNeighborsInto, the receiver-major sparse lost
		// count) must match the reference byte-for-byte
		// in the faulted/ported/shuffled regime too.
		wwCfg.ForceCSR = trial%2 == 0
		wwEng, err := NewEngine(wwCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ww := wwEng.RunRounds(25)

		assertEqualResults(t, ref, ww, "trial %d (n=%d, seed=%d) recorded pair", trial, n, seed)
		refEvents, wwEvents := refRec.Events(), wwRec.Events()
		if !reflect.DeepEqual(refEvents, wwEvents) {
			for i := range refEvents {
				if i >= len(wwEvents) || !reflect.DeepEqual(refEvents[i], wwEvents[i]) {
					t.Fatalf("trial %d (n=%d, seed=%d): event streams diverge at %d:\nref %v\nww  %v",
						trial, n, seed, i, trace.Describe(refEvents[i]), describeAt(wwEvents, i))
				}
			}
			t.Fatalf("trial %d: ww stream has %d extra events", trial, len(wwEvents)-len(refEvents))
		}

		// Third run: no Recorder, no bandwidth accounting. This is the
		// shape that hands DeliverAll whole batches (it does exactly when
		// nothing observes deliveries) and, on draws with identity ports
		// and no caps, takes the word, CSR and dense-row arms where it
		// can, so it must be pinned
		// against the reference too — through Results, since there is no
		// event stream to compare.
		bareRef := cfg()
		bareRef.AccountBandwidth = false
		bareRefEng, err := NewEngine(bareRef)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bareWW := cfg()
		bareWW.AccountBandwidth = false
		// A random representation: the fast paths over either one must
		// reproduce the reference delivery stream exactly.
		bareWW.ForceCSR = rng.Intn(2) == 0
		bareWWEng, err := NewEngine(bareWW)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rr, ww := referenceRunRounds(bareRefEng, 25), bareWWEng.RunRounds(25)
		assertEqualResults(t, rr, ww, "trial %d (n=%d, seed=%d, csr=%v) bare pair",
			trial, n, seed, bareWW.ForceCSR)
		assertEqualStates(t, bareRefEng, bareWWEng, "trial %d (n=%d, seed=%d, csr=%v) bare pair",
			trial, n, seed, bareWW.ForceCSR)

		// Fourth run, on every draw (crash-only, Byzantine and mixed ones
		// included): strip what keeps a round off the word, CSR and
		// dense-row arms (ports, caps, bandwidth accounting), so each of
		// them, and the gather in the rounds they do not take (a partial
		// crash, a Byzantine sender past the word round, shuffling), with
		// whichever algorithm and strategies were drawn and with each
		// arm's own lost count, meets the oracle on both representations.
		crashy := len(bareRef.Crashes) > 0
		byzy := len(bareRef.Byzantine) > 0
		plain := func() Config {
			c := cfg()
			c.AccountBandwidth, c.MaxMessageBytes = false, 0
			c.Ports = nil
			return c
		}
		for _, forceCSR := range []bool{true, false} {
			spRefEng, err := NewEngine(plain())
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			spCfg := plain()
			spCfg.ForceCSR = forceCSR
			spEng, arms := newArmEngine(t, spCfg)
			if spEng.needSize || !spEng.allIdentity {
				t.Fatalf("trial %d: an identity-port config with no caps or accounting is kept off the word, CSR and dense-row arms", trial)
			}
			rr, ww = referenceRunRounds(spRefEng, 25), spEng.RunRounds(25)
			if rr.MessagesLost != ww.MessagesLost || rr.MessagesDelivered != ww.MessagesDelivered {
				t.Fatalf("trial %d (n=%d, seed=%d, csr=%v) plain: lost/delivered %d/%d, oracle %d/%d",
					trial, n, seed, forceCSR, ww.MessagesLost, ww.MessagesDelivered, rr.MessagesLost, rr.MessagesDelivered)
			}
			assertEqualResults(t, rr, ww, "trial %d (n=%d, seed=%d, csr=%v) plain pair", trial, n, seed, forceCSR)
			assertEqualStates(t, spRefEng, spEng, "trial %d (n=%d, seed=%d, csr=%v) plain pair", trial, n, seed, forceCSR)
			words += min(arms.words, 1)
			csr += min(int(arms.csr.Load()), 1)
			rows += min(arms.rows, 1)
			switch {
			case arms.gathers == 0:
			case byzy:
				gatherByz++
			case crashy:
				gatherCrash++
			}
		}
	}
	t.Logf("plain runs by arm: %d word, %d CSR, %d dense row; gather %d Byzantine, %d crash-only",
		words, csr, rows, gatherByz, gatherCrash)
	if words < 10 || csr < 10 || rows < 10 {
		t.Errorf("plain runs took the word round %d times, the CSR round %d times and the dense-row arm %d times — property nearly vacuous",
			words, csr, rows)
	}
	if gatherByz < 10 || gatherCrash < 10 {
		t.Errorf("Byzantine plain runs took the gather %d times and crash-only ones %d times — property nearly vacuous",
			gatherByz, gatherCrash)
	}
}

// armCount is a Population that counts the engine's calls on each arm
// of deliverRange: DeliverWords is the word round, DeliverCSR the CSR
// round, DeliverRow the dense-row arm and DeliverAll the gather.
type armCount struct {
	core.Population
	words, rows, gathers int
	csr                  atomic.Int32 // counted on both goroutines of a helped round
}

func (a *armCount) DeliverWords(recv uint64, in []uint64, sends uint64, msgs []core.Message, byz uint64, out [][]*core.Message) uint64 {
	a.words++
	return a.Population.DeliverWords(recv, in, sends, msgs, byz, out)
}

func (a *armCount) DeliverCSR(part, lo, hi int, recv []uint64, starts, ids []int32, msgs []core.Message, decided []uint64) {
	a.csr.Add(1)
	a.Population.DeliverCSR(part, lo, hi, recv, starts, ids, msgs, decided)
}

func (a *armCount) DeliverRow(v int, row []int32, msgs []core.Message) {
	a.rows++
	a.Population.DeliverRow(v, row, msgs)
}

func (a *armCount) DeliverAll(v int, ds []core.Delivery) {
	a.gathers++
	a.Population.DeliverAll(v, ds)
}

// newArmEngine is NewEngine(cfg) with its calls counted by arm.
func newArmEngine(t *testing.T, cfg Config) (*Engine, *armCount) {
	t.Helper()
	arms := &armCount{Population: core.PerNode(cfg.Procs)}
	e := &Engine{}
	if err := e.ResetPopulation(cfg, arms); err != nil {
		t.Fatal(err)
	}
	return e, arms
}

// TestGatherCrashKinds pins each crash kind on the one gather, in both
// representations: a clean crash (the final broadcast reaches every
// out-neighbor), a silent one (it reaches none) and a partial one (only
// the DeliverTo list), each in its crash round and in the rounds after
// it, against the reference oracle's deliveries, lost count and end
// states. Shuffled delivery sends every round through the gather.
// Unshuffled, the crash rounds of silent and partial crashes gather,
// and every other round goes by word (n = 33), by dense row (n = 70) or
// by CSR, so those arms meet each kind too.
func TestGatherCrashKinds(t *testing.T) {
	kinds := map[string]func(r int) fault.Crash{
		"clean":   fault.CrashAt,
		"silent":  fault.CrashSilent,
		"partial": func(r int) fault.Crash { return fault.CrashPartial(r, 0, 2, 5, 31) },
	}
	advs := map[string]func() adversary.Adversary{
		"er2": func() adversary.Adversary { return must(adversary.NewSparseProbabilistic(0.2, 3)) },
		"er":  func() adversary.Adversary { return must(adversary.NewProbabilistic(0.4, 4)) },
	}
	for kind, crash := range kinds {
		for advName, adv := range advs {
			for _, n := range []int{33, 70} {
				for _, forceCSR := range []bool{false, true} {
					for _, shuffle := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/n=%d/csr=%v/shuffle=%v", kind, advName, n, forceCSR, shuffle)
						mk := func() Config {
							return Config{
								N: n, F: 4, Procs: dacProcs(t, n, 40, spread(n)), Adversary: adv(),
								Crashes:   fault.Schedule{3: crash(1), 8: crash(2), 20: crash(2), 30: crash(5)},
								MaxRounds: 1 << 20, KeepTrace: true, ForceCSR: forceCSR,
								ShuffleDelivery: shuffle, ShuffleSeed: 9,
							}
						}
						ref := must(NewEngine(mk()))
						eng, arms := newArmEngine(t, mk())
						if eng.needSize || !eng.allIdentity || eng.edges.IsSparse() != forceCSR {
							t.Fatalf("%s: not an identity-port round without sizes in the drawn representation", name)
						}
						rr, ww := referenceRunRounds(ref, 10), eng.RunRounds(10)
						if rr.MessagesLost != ww.MessagesLost || rr.MessagesDelivered != ww.MessagesDelivered {
							t.Fatalf("%s: lost/delivered %d/%d, oracle %d/%d", name,
								ww.MessagesLost, ww.MessagesDelivered, rr.MessagesLost, rr.MessagesDelivered)
						}
						assertEqualResults(t, rr, ww, "%s", name)
						assertEqualStates(t, ref, eng, "%s", name)
						if (shuffle || kind != "clean") && arms.gathers == 0 {
							t.Fatalf("%s: no round gathered", name)
						}
						batch := arms.rows // the calls of the arm the other rounds take
						switch {
						case forceCSR:
							batch = int(arms.csr.Load())
						case n <= wordN:
							batch = arms.words
						}
						if shuffle && arms.words+int(arms.csr.Load())+arms.rows > 0 || !shuffle && batch == 0 {
							t.Fatalf("%s: rounds by arm: %d words, %d CSR, %d rows, %d gathers", name, arms.words, arms.csr.Load(), arms.rows, arms.gathers)
						}
					}
				}
			}
		}
	}
}

// assertEqualResults compares two Results for byte-identity, comparing
// the kept traces through EdgeSet.Equal first: the same round graph may
// legitimately live in different representations (dense vs CSR), which
// reflect.DeepEqual on the internals would misreport as divergence.
func assertEqualResults(t *testing.T, ref, got *Result, format string, args ...any) {
	t.Helper()
	if len(ref.Trace) != len(got.Trace) {
		t.Fatalf(format+": trace length %d vs %d", append(args, len(ref.Trace), len(got.Trace))...)
	}
	for i := range ref.Trace {
		if !ref.Trace[i].Equal(got.Trace[i]) || !got.Trace[i].Equal(ref.Trace[i]) {
			t.Fatalf(format+": round %d edge sets differ", append(args, i)...)
		}
	}
	refBody, gotBody := *ref, *got
	refBody.Trace, gotBody.Trace = nil, nil
	if !reflect.DeepEqual(&refBody, &gotBody) {
		t.Fatalf(format+": Results diverge\nref %+v\ngot %+v", append(args, &refBody, &gotBody)...)
	}
}

// assertEqualStates compares every node's end state (phase, value,
// decided). The property's processes never decide, so without a
// Recorder this is the only place a dropped or reordered delivery shows.
func assertEqualStates(t *testing.T, ref, got *Engine, format string, args ...any) {
	t.Helper()
	for i, p := range ref.cfg.Procs {
		if p == nil {
			continue
		}
		if r, g := core.Snap(ref.pop, i), core.Snap(got.pop, i); r != g {
			t.Fatalf(format+": node %d ends at %+v, reference %+v", append(args, i, g, r)...)
		}
	}
}

func describeAt(events []trace.Event, i int) string {
	if i >= len(events) {
		return "<missing>"
	}
	return trace.Describe(events[i])
}

// randomDeliveryConfig draws one scenario from the property test's
// distribution: sparse/dense adversaries, optional crashes (clean,
// silent and partial), optional Byzantine senders, random port
// numberings, delivery shuffling, bandwidth accounting, per-link caps,
// and the algorithm — DBAC one time in three, DAC otherwise. A clean
// draw has no Byzantine node, only clean crashes and no shuffling.
// Everything is a deterministic function of (n, seed, clean) so both
// runs see identical configurations.
func randomDeliveryConfig(t *testing.T, n int, seed int64, clean bool) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	var adv adversary.Adversary
	switch rng.Intn(7) {
	case 0:
		adv = adversary.NewComplete()
	case 1:
		p := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
		a, err := adversary.NewProbabilistic(p, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 2:
		a, err := adversary.NewRotating(1 + rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 3:
		// Sparse-native sampler: the geometric-skip draw must be exact
		// through the whole round loop, not just in isolation.
		p := []float64{0.02, 0.1, 0.5}[rng.Intn(3)]
		a, err := adversary.NewSparseProbabilistic(p, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 4:
		// Adaptive adversaries read the view's snapshots every round:
		// they gate the incremental view maintenance against the eager
		// reference refresh.
		a, err := adversary.NewClustered(1 + rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	case 5:
		a, err := adversary.NewStarve(1 + rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	default:
		a, err := adversary.NewIsolate(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		adv = a
	}

	crashes := fault.Schedule{}
	byz := map[int]fault.Strategy{}
	if n >= 7 {
		perm := rng.Perm(n)
		faulty := perm[:rng.Intn(3)]
		for i, node := range faulty {
			switch {
			case clean:
				crashes[node] = fault.CrashAt(rng.Intn(6))
			case rng.Intn(2) == 0:
				// RandomNoise reads receiver phases off the view — it
				// gates the incremental snapshots even under oblivious
				// adversaries.
				strat := []fault.Strategy{
					fault.Silent{},
					fault.Extremist{Value: 1},
					fault.Equivocator{Low: 0, High: 1},
					fault.NewRandomNoise(rng.Int63()),
				}[rng.Intn(4)]
				byz[node] = strat
			case i%2 == 0:
				crashes[node] = fault.CrashPartial(rng.Intn(6), perm[len(faulty):][:rng.Intn(3)]...)
			default:
				crashes[node] = fault.CrashAt(rng.Intn(6))
			}
		}
	}

	algo := rng.Intn(3)
	procs := make([]core.Process, n)
	inputs := make([]float64, n)
	for i := range inputs {
		if _, isByz := byz[i]; !isByz {
			inputs[i] = rng.Float64()
		}
	}
	skip := func(i int) bool { _, isByz := byz[i]; return isByz }
	if algo == 1 {
		// A population checks no n ≥ 5f+1 bound: the property is about
		// delivery streams, not correctness.
		dbacs, err := core.NewDBACPopulation(len(byz), 1<<20, core.ByzQuorum(n, len(byz)), func(i int) int { return i }, inputs, skip)
		if err != nil {
			t.Fatal(err)
		}
		for i := range procs {
			if !skip(i) {
				procs[i] = &dbacs[i]
			}
		}
	} else {
		for i := range procs {
			if !skip(i) {
				procs[i] = must(core.NewDACPhases(n, i, 1<<20, inputs[i]))
			}
		}
	}

	cfg := Config{
		N:                n,
		F:                len(crashes) + len(byz),
		Procs:            procs,
		Byzantine:        byz,
		Crashes:          crashes,
		Adversary:        adv,
		MaxRounds:        1 << 20,
		AccountBandwidth: true,
		KeepTrace:        true,
	}
	if rng.Intn(2) == 0 {
		cfg.Ports = network.RandomPorts(n, rng)
	}
	if rng.Intn(2) == 0 && !clean {
		cfg.ShuffleDelivery = true
		cfg.ShuffleSeed = rng.Int63()
	}
	if rng.Intn(3) == 0 {
		cfg.MaxMessageBytes = 1 + rng.Intn(4) // small enough to clip some messages
	}
	return cfg
}

// TestEnginePortsRecycledAcrossReset: the engine-owned identity
// numberings — and with them the dense PortOf cache the delivery core
// leans on — must be reused verbatim by a same-size Reset, and must
// still be a bijection afterwards.
func TestEnginePortsRecycledAcrossReset(t *testing.T) {
	mk := func() Config {
		return Config{N: 9, Procs: dacProcs(t, 9, 10, spread(9)), Adversary: adversary.NewComplete()}
	}
	eng, err := NewEngine(mk())
	if err != nil {
		t.Fatal(err)
	}
	before := eng.ports
	eng.Run()
	if err := eng.Reset(mk()); err != nil {
		t.Fatal(err)
	}
	if &eng.ports[0] != &before[0] {
		t.Error("same-n Reset rebuilt the engine-owned ports")
	}
	for v := 0; v < 9; v++ {
		numbering := eng.ports[v]
		if !numbering.IsIdentity() {
			t.Fatalf("default numbering for %d lost its identity flag", v)
		}
		for u := 0; u < 9; u++ {
			if numbering.PortOf(u) != u || numbering.Node(u) != u {
				t.Fatalf("recycled PortOf broken at receiver %d, sender %d", v, u)
			}
		}
	}
	// A different n must rebuild rather than reuse stale numberings.
	cfg := mk()
	cfg.N = 5
	cfg.Procs = dacProcs(t, 5, 10, spread(5))
	if err := eng.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := eng.ports[0].N(); got != 5 {
		t.Fatalf("resized Reset kept %d-node numberings", got)
	}
}

// TestDeliveryEquivalenceAcrossReset drives one recycled engine pair
// through several scenarios, flipping nothing but the gather
// implementation: Engine.Reset must preserve the equivalence (scratch
// reuse may not leak state between runs).
func TestDeliveryEquivalenceAcrossReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var refEng, wwEng *Engine
	for trial := 0; trial < 12; trial++ {
		n := []int{5, 9, 70}[rng.Intn(3)]
		seed := rng.Int63()
		refCfg, wwCfg := randomDeliveryConfig(t, n, seed, false), randomDeliveryConfig(t, n, seed, false)
		// Flip the representation across Resets on the SAME engine: a
		// recycled scratch in the wrong representation must be rebuilt,
		// with no state leak.
		wwCfg.ForceCSR = rng.Intn(2) == 0
		var err error
		if refEng == nil {
			if refEng, err = NewEngine(refCfg); err != nil {
				t.Fatal(err)
			}
			if wwEng, err = NewEngine(wwCfg); err != nil {
				t.Fatal(err)
			}
		} else {
			if err = refEng.Reset(refCfg); err != nil {
				t.Fatal(err)
			}
			if err = wwEng.Reset(wwCfg); err != nil {
				t.Fatal(err)
			}
		}
		ref, ww := referenceRunRounds(refEng, 20), wwEng.RunRounds(20)
		assertEqualResults(t, ref, ww, "trial %d (n=%d, seed=%d, csr=%v) recycled pair",
			trial, n, seed, wwCfg.ForceCSR)
		assertEqualStates(t, refEng, wwEng, "trial %d (n=%d, seed=%d, csr=%v) recycled pair",
			trial, n, seed, wwCfg.ForceCSR)
	}
}
