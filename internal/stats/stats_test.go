package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%g", s.N, s.Mean)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %g, want %g", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min=%g Max=%g", s.Min, s.Max)
	}
}

func TestSummarizeSingleAndEmpty(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 || s.StdDev != 0 || s.CI95() != 0 {
		t.Errorf("single-value summary wrong: %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestCI95(t *testing.T) {
	s, _ := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	want := 1.96 * s.StdDev / 3 // sqrt(9) = 3
	if math.Abs(s.CI95()-want) > 1e-12 {
		t.Errorf("CI95 = %g, want %g", s.CI95(), want)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

// Property: Min <= Mean <= Max, and Summarize does not mutate the input.
func TestSummaryProperties(t *testing.T) {
	f := func(raw []float64) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Bound magnitude to avoid float overflow in sums.
				values = append(values, math.Mod(v, 1e6))
			}
		}
		if len(values) == 0 {
			return true
		}
		orig := append([]float64(nil), values...)
		s, err := Summarize(values)
		if err != nil {
			return false
		}
		if !(s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9) {
			return false
		}
		for i := range values {
			if values[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
