// Command byzantine runs DBAC in the connected-vehicle setting the
// paper motivates: 11 vehicles negotiate a common platoon speed while
// two of them are compromised. One compromised vehicle equivocates —
// claiming a low speed to the front half and a high speed to the back
// half, which anonymity makes undetectable (no reliable broadcast is
// possible, §VI-C) — and the other sprays random plausible-looking
// values. The message adversary only guarantees the Theorem 10 degree
// ⌊(n+3f)/2⌋ per round, from rotating neighbor sets.
package main

import (
	"fmt"
	"log"
	"sort"

	"anondyn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n   = 11
		f   = 2
		eps = 1e-3
	)
	byz := map[int]anondyn.Strategy{
		4: anondyn.Equivocator(0, 1), // two-faced speed claims
		9: anondyn.RandomNoise(13),   // plausible garbage
	}
	tracker := anondyn.NewPhaseTracker()
	res, err := anondyn.Scenario{
		N: n, F: f, Eps: eps,
		Algorithm:    anondyn.AlgoDBAC,
		PEndOverride: 14, // ≈ log2(1/ε) + slack; Equation 6's bound is loose (see dyna tables -exp E5, pinned by TestE5Shape)
		Inputs:       anondyn.RandomInputs(n, 99),
		Adversary:    anondyn.Rotating(anondyn.ByzDegree(n, f)),
		Byzantine:    byz,
		Tracker:      tracker,
		RandomPorts:  true,
		Seed:         42,
	}.Run()
	if err != nil {
		return err
	}

	fmt.Printf("connected vehicles: n=%d, f=%d Byzantine, ε=%g\n", n, f, eps)
	fmt.Printf("required dynaDegree: ⌊(n+3f)/2⌋ = %d; quorum per phase: %d values\n\n",
		anondyn.ByzDegree(n, f), anondyn.ByzDegree(n, f)+1)

	ids := make([]int, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  vehicle %2d decided %.6f in round %d\n", id, res.Outputs[id], res.DecideRound[id])
	}
	fmt.Printf("  (vehicles 4 and 9 are Byzantine: no output)\n\n")

	fmt.Printf("rounds: %d   range: %.2g   ε-agreement: %v\n",
		res.Rounds, res.OutputRange(), res.EpsAgreement(eps))
	fmt.Printf("validity (inside fault-free input hull despite equivocation): %v\n", res.Valid())

	fmt.Println("\nper-phase contraction of the fault-free range:")
	for p := 1; p <= tracker.MaxPhase() && p <= 8; p++ {
		prev, cur := tracker.Range(p-1), tracker.Range(p)
		ratio := 0.0
		if prev > 0 {
			ratio = cur / prev
		}
		fmt.Printf("  phase %2d: range %.6f (×%.3f; Theorem 7 bound ×%.6f)\n",
			p, cur, ratio, 1.0-1.0/float64(uint64(1)<<n))
	}

	if !res.Decided || !res.Valid() {
		return fmt.Errorf("byzantine: run failed (decided=%v valid=%v)", res.Decided, res.Valid())
	}
	return nil
}
