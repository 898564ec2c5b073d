package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Distribution accumulates scalar observations for quantile summaries. At
// population scale a mean hides the tail that the paper's admission story
// is about, so the megacrowd reports assert quantiles instead. Observations
// arrive in any order; quantiles sort lazily and cache until the next
// Observe. Not safe for concurrent use — reports are built single-threaded
// after a run.
type Distribution struct {
	Name   string
	vals   []float64
	sorted bool
}

// NewDistribution returns an empty named distribution.
func NewDistribution(name string) *Distribution { return &Distribution{Name: name} }

// Observe adds one observation.
func (d *Distribution) Observe(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// Count returns the number of observations.
func (d *Distribution) Count() int { return len(d.vals) }

func (d *Distribution) sortNow() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) with linear interpolation
// between order statistics; ok is false for an empty distribution or a q
// outside [0,1].
func (d *Distribution) Quantile(q float64) (float64, bool) {
	if len(d.vals) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return 0, false
	}
	d.sortNow()
	pos := q * float64(len(d.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.vals[lo], true
	}
	frac := pos - float64(lo)
	return d.vals[lo]*(1-frac) + d.vals[hi]*frac, true
}

// Min and Max return the extreme observations (ok false when empty).
func (d *Distribution) Min() (float64, bool) { return d.Quantile(0) }

// Max returns the largest observation.
func (d *Distribution) Max() (float64, bool) { return d.Quantile(1) }

// Mean returns the arithmetic mean (ok false when empty).
func (d *Distribution) Mean() (float64, bool) {
	if len(d.vals) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range d.vals {
		sum += v
	}
	return sum / float64(len(d.vals)), true
}

// StdDev returns the sample standard deviation (n-1 in the denominator);
// zero for fewer than two observations.
func (d *Distribution) StdDev() float64 {
	if len(d.vals) < 2 {
		return 0
	}
	mean, _ := d.Mean()
	var ss float64
	for _, v := range d.vals {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(d.vals)-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation: 1.96·s/√n. It is zero for n < 2.
func (d *Distribution) CI95() float64 {
	if len(d.vals) < 2 {
		return 0
	}
	return 1.96 * d.StdDev() / math.Sqrt(float64(len(d.vals)))
}

// MeanCI renders "mean ± ci (n=N)". The paper reports single simulation
// runs; the replicated experiments rerun each under several seeds and
// report this, which is how the repo tells real effects from seed noise.
func (d *Distribution) MeanCI() string {
	mean, _ := d.Mean()
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", mean, d.CI95(), len(d.vals))
}

// Summary renders "name: n=…, p50=…, p90=…, p99=…, max=…" for digests.
func (d *Distribution) Summary() string {
	if len(d.vals) == 0 {
		return fmt.Sprintf("%s: empty", d.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d", d.Name, len(d.vals))
	for _, q := range []struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		v, _ := d.Quantile(q.q)
		fmt.Fprintf(&b, ", %s=%.2f", q.label, v)
	}
	max, _ := d.Max()
	fmt.Fprintf(&b, ", max=%.2f", max)
	return b.String()
}

// QuantileSeries distills the running distribution of a metric over time
// into quantile trajectories: given completion-ordered (time, value) pairs,
// it emits, at up to maxPoints evenly spread checkpoints, the q-quantiles
// of everything observed so far — one Series per requested q, sharing one
// time axis (so WriteCSVIn can emit them as a single table). This is how a
// hundred-thousand-sample megacrowd run charts its admission-latency tail
// without a per-sample running sort.
func QuantileSeries(name string, times []time.Duration, values []float64, maxPoints int, qs ...float64) []*Series {
	if len(times) != len(values) {
		panic(fmt.Sprintf("metrics: %d times for %d values", len(times), len(values)))
	}
	n := len(values)
	out := make([]*Series, len(qs))
	for i, q := range qs {
		out[i] = &Series{Name: fmt.Sprintf("%s_p%g", name, q*100)}
	}
	if n == 0 || len(qs) == 0 {
		return out
	}
	if maxPoints < 1 {
		maxPoints = 1
	}
	step := 1
	if n > maxPoints {
		step = (n + maxPoints - 1) / maxPoints
	}
	sorted := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if (i+1)%step != 0 && i != n-1 {
			continue
		}
		sorted = append(sorted[:0], values[:i+1]...)
		sort.Float64s(sorted)
		for j, q := range qs {
			out[j].Add(times[i], quantileSorted(sorted, q))
		}
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
