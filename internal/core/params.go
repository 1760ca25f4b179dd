package core

import (
	"errors"
	"fmt"
	"math"
)

// Model-level errors shared by the algorithm constructors.
var (
	// ErrResilience reports an (n, f) pair outside the algorithm's
	// resilience bound (n ≥ 2f+1 for DAC, n ≥ 5f+1 for DBAC).
	ErrResilience = errors.New("core: (n, f) violates the resilience bound")
	// ErrEpsilon reports a non-positive or ≥ range-width ε.
	ErrEpsilon = errors.New("core: epsilon must be in (0, 1)")
	// ErrInput reports an input value outside the scaled range [0, 1].
	ErrInput = errors.New("core: input must lie in [0, 1]")
)

// CrashQuorum is the number of same-phase states (including the node's
// own) that lets a DAC node advance a phase: ⌊n/2⌋ + 1 (Algorithm 1,
// line 12).
func CrashQuorum(n int) int { return n/2 + 1 }

// ByzQuorum is the number of phase-≥p states (including the node's own)
// that lets a DBAC node advance a phase: ⌊(n+3f)/2⌋ + 1 (Algorithm 2,
// line 8).
func ByzQuorum(n, f int) int { return (n+3*f)/2 + 1 }

// CrashDegree is the dynaDegree D required by DAC: ⌊n/2⌋ (Theorem 9 —
// necessary — and §IV — sufficient).
func CrashDegree(n int) int { return n / 2 }

// ByzDegree is the dynaDegree D required by DBAC: ⌊(n+3f)/2⌋
// (Theorem 10 and §V).
func ByzDegree(n, f int) int { return (n + 3*f) / 2 }

// PEndDAC is the output phase for DAC: p_end = log_{1/2}(ε) rounded up,
// i.e. the smallest p with (1/2)^p ≤ ε (Equation 2). Inputs span at most
// [0,1], so after p_end phases the fault-free range is ≤ ε.
func PEndDAC(eps float64) int {
	if eps >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(1 / eps)))
}

// PEndDBAC is the output phase for DBAC: p_end = log ε / log(1 − 2⁻ⁿ)
// rounded up (Equation 6). The bound is loose (the proof contracts by
// only 1−2⁻ⁿ per phase); for n beyond ~25 it overflows any practical
// round budget, which is why RunConfig allows an explicit phase override
// for measurement runs (dyna tables -exp E5, pinned by TestE5Shape).
func PEndDBAC(eps float64, n int) int {
	if eps >= 1 {
		return 0
	}
	rate := 1 - math.Pow(2, -float64(n))
	p := math.Log(eps) / math.Log(rate)
	if math.IsInf(p, 0) || p > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(math.Ceil(p))
}

// ValidateCrash checks the DAC preconditions n ≥ 2f+1, f ≥ 0, n ≥ 1.
func ValidateCrash(n, f int) error {
	if n < 1 || f < 0 {
		return fmt.Errorf("%w: n=%d f=%d", ErrResilience, n, f)
	}
	if n < 2*f+1 {
		return fmt.Errorf("%w: DAC needs n ≥ 2f+1, got n=%d f=%d", ErrResilience, n, f)
	}
	return nil
}

// ValidateByz checks the DBAC preconditions n ≥ 5f+1, f ≥ 0, n ≥ 1.
func ValidateByz(n, f int) error {
	if n < 1 || f < 0 {
		return fmt.Errorf("%w: n=%d f=%d", ErrResilience, n, f)
	}
	if n < 5*f+1 {
		return fmt.Errorf("%w: DBAC needs n ≥ 5f+1, got n=%d f=%d", ErrResilience, n, f)
	}
	return nil
}

// ValidateEpsilon checks ε ∈ (0, 1).
func ValidateEpsilon(eps float64) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("%w: got %g", ErrEpsilon, eps)
	}
	return nil
}

// ValidateInput checks x ∈ [0, 1] (inputs are scaled, §II-C).
func ValidateInput(x float64) error {
	if math.IsNaN(x) || x < 0 || x > 1 {
		return fmt.Errorf("%w: got %g", ErrInput, x)
	}
	return nil
}
