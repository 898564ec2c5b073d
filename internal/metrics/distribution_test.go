package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDistributionQuantiles(t *testing.T) {
	d := NewDistribution("lat")
	if _, ok := d.Quantile(0.5); ok {
		t.Error("empty distribution reported a quantile")
	}
	// 1..100 in shuffled-ish order: quantiles must not depend on insertion
	// order.
	for i := 0; i < 100; i++ {
		d.Observe(float64((i*37)%100 + 1))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		got, ok := d.Quantile(c.q)
		if !ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}
	if m, ok := d.Mean(); !ok || math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Mean = %v, %v; want 50.5", m, ok)
	}
	if _, ok := d.Quantile(1.5); ok {
		t.Error("out-of-range quantile reported ok")
	}
	d.Observe(1000) // cache invalidation: new max must surface
	if max, _ := d.Max(); max != 1000 {
		t.Errorf("Max after new observation = %v, want 1000", max)
	}
	if s := d.Summary(); s == "" || s == "lat: empty" {
		t.Errorf("Summary = %q", s)
	}
}

func TestQuantileSeries(t *testing.T) {
	n := 1000
	times := make([]time.Duration, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		times[i] = time.Duration(i) * time.Millisecond
		values[i] = float64(i)
	}
	series := QuantileSeries("adm", times, values, 64, 0.5, 0.99)
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	p50, p99 := series[0], series[1]
	if p50.Name != "adm_p50" || p99.Name != "adm_p99" {
		t.Errorf("names %q, %q", p50.Name, p99.Name)
	}
	if p50.Len() == 0 || p50.Len() > 65 {
		t.Fatalf("checkpoint count %d, want 1..65", p50.Len())
	}
	if p50.Len() != p99.Len() {
		t.Fatalf("axes differ: %d vs %d", p50.Len(), p99.Len())
	}
	// The final checkpoint covers the whole population.
	last50, _ := p50.Last()
	last99, _ := p99.Last()
	if math.Abs(last50-499.5) > 1e-9 {
		t.Errorf("final p50 = %v, want 499.5", last50)
	}
	if math.Abs(last99-float64(n-1)*0.99) > 1e-9 {
		t.Errorf("final p99 = %v, want %v", last99, float64(n-1)*0.99)
	}
	// Monotone population, so the running p50 trajectory must be
	// non-decreasing, and p99 must dominate p50 at every checkpoint.
	for i := 1; i < p50.Len(); i++ {
		if p50.Values[i] < p50.Values[i-1] {
			t.Fatalf("running p50 decreased at %d", i)
		}
	}
	for i := 0; i < p50.Len(); i++ {
		if p99.Values[i] < p50.Values[i] {
			t.Fatalf("p99 < p50 at checkpoint %d", i)
		}
	}
	// Empty input: named, empty series — callers can still chart them.
	empty := QuantileSeries("e", nil, nil, 10, 0.5)
	if len(empty) != 1 || empty[0].Len() != 0 {
		t.Errorf("empty input gave %+v", empty)
	}
}

func observed(values ...float64) *Distribution {
	d := NewDistribution("sample")
	for _, v := range values {
		d.Observe(v)
	}
	return d
}

func TestDistributionMoments(t *testing.T) {
	d := observed(2, 4, 4, 4, 5, 5, 7, 9)
	if mean, ok := d.Mean(); !ok || d.Count() != 8 || mean != 5 {
		t.Errorf("N=%d Mean=%g", d.Count(), mean)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(d.StdDev()-want) > 1e-12 {
		t.Errorf("StdDev = %g, want %g", d.StdDev(), want)
	}
	lo, _ := d.Min()
	hi, _ := d.Max()
	if lo != 2 || hi != 9 {
		t.Errorf("Min=%g Max=%g", lo, hi)
	}
}

func TestDistributionMomentsSingleAndEmpty(t *testing.T) {
	d := observed(3)
	if mean, _ := d.Mean(); mean != 3 || d.StdDev() != 0 || d.CI95() != 0 {
		t.Errorf("single-value moments wrong: mean %g, stddev %g, ci %g", mean, d.StdDev(), d.CI95())
	}
	empty := observed()
	if _, ok := empty.Mean(); ok || empty.StdDev() != 0 || empty.CI95() != 0 {
		t.Error("empty sample should have no mean and zero spread")
	}
}

func TestDistributionCI95(t *testing.T) {
	d := observed(1, 2, 3, 4, 5, 6, 7, 8, 9)
	want := 1.96 * d.StdDev() / 3 // sqrt(9) = 3
	if math.Abs(d.CI95()-want) > 1e-12 {
		t.Errorf("CI95 = %g, want %g", d.CI95(), want)
	}
	if got := d.MeanCI(); got != "5.00 ± 1.79 (n=9)" {
		t.Errorf("MeanCI = %q", got)
	}
}

// Property: Min <= Mean <= Max, the spread is never negative, and the
// moments do not reorder the observations.
func TestDistributionMomentProperties(t *testing.T) {
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
		d := observed(values...)
		mean, _ := d.Mean()
		if d.StdDev() < 0 || d.CI95() < 0 || d.MeanCI() == "" {
			return false
		}
		for i := range values {
			if d.vals[i] != values[i] {
				return false
			}
		}
		lo, _ := d.Min()
		hi, _ := d.Max()
		return lo <= mean+1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
