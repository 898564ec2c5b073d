// Package stats provides the summary statistics used by replicated
// experiments: mean, standard deviation and normal-approximation confidence
// intervals. The paper reports single simulation runs;
// the replication harness built on this package reruns each experiment
// under several seeds and reports mean ± 95% CI, which is how the repo
// distinguishes real effects from seed noise.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Summary holds the summary statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// ErrEmpty is returned when a computation needs at least one value.
var ErrEmpty = errors.New("stats: empty sample")

// Summarize computes the summary of the given values.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s, nil
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation: 1.96·s/√n. It is zero for n < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean, s.CI95(), s.N)
}
