package experiments

import "testing"

func TestE13Shape(t *testing.T) {
	tb := E13RateProbe()
	if tb.Rows() != 12 { // 4 adversaries × 3 strategies
		t.Fatalf("rows = %d, want 12", tb.Rows())
	}
	const bound = 1 - 1.0/2048 // 1−2⁻¹¹ for n=11
	for r := 0; r < tb.Rows(); r++ {
		worst := cellFloat(t, tb, r, 2)
		if worst > bound {
			t.Errorf("row %d: worst ρ %g exceeds the Theorem 7 bound %g", r, worst, bound)
		}
		// The empirical core finding: no attack family pushes past 0.55.
		if worst > 0.55 {
			t.Errorf("row %d: worst ρ %g unexpectedly above ≈1/2 — update this check and the E13 note (dyna tables -exp E13) if genuine", r, worst)
		}
		if !cellBool(t, tb, r, 4) {
			t.Errorf("row %d: validity violated", r)
		}
		geo := cellFloat(t, tb, r, 3)
		if geo > worst+1e-9 {
			t.Errorf("row %d: geo-mean %g exceeds worst %g", r, geo, worst)
		}
	}
}
