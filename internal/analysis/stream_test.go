package analysis

import "testing"

func TestAccumulatorMatchesSummarize(t *testing.T) {
	sample := []float64{4, 1, 9, 2.5, 7, 0.5, 3, 3, 8, 6}
	var acc Accumulator
	for _, v := range sample {
		acc.Add(v)
	}
	if got, want := acc.Summary(), Summarize(sample); got != want {
		t.Errorf("Summary() = %+v, want %+v", got, want)
	}
	if s := acc.Summary(); s.N != len(sample) || s.Min != 0.5 || s.Max != 9 {
		t.Errorf("Summary() n=%d min=%g max=%g, want %d, 0.5, 9", s.N, s.Min, s.Max, len(sample))
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if got := acc.Summary(); got != (Summary{}) {
		t.Errorf("empty Summary() = %+v", got)
	}
}

func TestAccumulatorNegativeAndSingle(t *testing.T) {
	var acc Accumulator
	acc.Add(-3)
	if s := acc.Summary(); s.Min != -3 || s.Max != -3 || s.Mean != -3 || s.StdDev != 0 {
		t.Errorf("single observation: min=%g max=%g mean=%g std=%g", s.Min, s.Max, s.Mean, s.StdDev)
	}
}
