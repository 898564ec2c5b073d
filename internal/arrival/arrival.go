// Package arrival generates the first-time streaming-request arrival
// patterns of the paper's evaluation (Section 5.1). The 50,000 requesting
// peers issue their first requests during a 72-hour window following one of
// four patterns:
//
//	Pattern 1: constant arrivals.
//	Pattern 2: gradually increasing, then gradually decreasing arrivals.
//	Pattern 3: bursty arrivals followed by lower, constant arrivals.
//	Pattern 4: periodic bursty arrivals with low, constant arrivals
//	           between bursts.
//
// The ICDCS paper defers exact specifications to its technical report; the
// parameterizations here are synthesized from the prose and recorded on
// the burst constants below. All generators draw from a caller-provided random source and
// return sorted times, so runs are reproducible.
package arrival

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Pattern identifies one of the paper's four arrival patterns.
type Pattern int

// The four patterns of Section 5.1.
const (
	Pattern1Constant Pattern = 1 + iota
	Pattern2RampUpDown
	Pattern3BurstThenConstant
	Pattern4PeriodicBursts
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Pattern1Constant:
		return "pattern1-constant"
	case Pattern2RampUpDown:
		return "pattern2-ramp"
	case Pattern3BurstThenConstant:
		return "pattern3-burst"
	case Pattern4PeriodicBursts:
		return "pattern4-periodic"
	default:
		return fmt.Sprintf("pattern%d-unknown", int(p))
	}
}

// Valid reports whether p is one of the four defined patterns.
func (p Pattern) Valid() bool {
	return p >= Pattern1Constant && p <= Pattern4PeriodicBursts
}

// Times draws n first-request arrival times in [0, window) following the
// pattern and returns them sorted ascending.
func (p Pattern) Times(n int, window time.Duration, rng *rand.Rand) ([]time.Duration, error) {
	if n < 0 {
		return nil, fmt.Errorf("arrival: n = %d, want >= 0", n)
	}
	if window <= 0 {
		return nil, fmt.Errorf("arrival: window %v, want > 0", window)
	}
	times := make([]time.Duration, n)
	for i := range times {
		var x float64 // position in [0,1)
		switch p {
		case Pattern1Constant:
			x = rng.Float64()
		case Pattern2RampUpDown:
			x = triangular(rng.Float64())
		case Pattern3BurstThenConstant:
			x = burstThenConstant(rng)
		case Pattern4PeriodicBursts:
			x = periodicBursts(rng)
		default:
			return nil, fmt.Errorf("arrival: unknown pattern %d", int(p))
		}
		times[i] = time.Duration(x * float64(window))
		if times[i] >= window {
			times[i] = window - 1
		}
	}
	slices.Sort(times)
	return times, nil
}

// triangular maps a uniform u to the symmetric triangular distribution on
// [0,1] peaking at 1/2 (rate ramps up linearly to the midpoint, then down).
func triangular(u float64) float64 {
	if u < 0.5 {
		return math.Sqrt(u / 2)
	}
	return 1 - math.Sqrt((1-u)/2)
}

// burstShare3 is the fraction of peers arriving in the initial burst of
// Pattern 3; the burst occupies the first burstWidth3 of the window.
const (
	burstShare3 = 0.4
	burstWidth3 = 1.0 / 12 // 6 h of a 72 h window
)

func burstThenConstant(rng *rand.Rand) float64 {
	if rng.Float64() < burstShare3 {
		return rng.Float64() * burstWidth3
	}
	return burstWidth3 + rng.Float64()*(1-burstWidth3)
}

// Pattern 4: numBursts bursts of width burstWidth4 starting every
// burstPeriod4, together carrying burstShare4 of the peers; the rest arrive
// uniformly in the gaps between bursts.
const (
	numBursts4   = 6
	burstPeriod4 = 1.0 / 6  // every 12 h of a 72 h window
	burstWidth4  = 1.0 / 36 // 2 h of a 72 h window
	burstShare4  = 0.6
)

func periodicBursts(rng *rand.Rand) float64 {
	if rng.Float64() < burstShare4 {
		b := rng.Intn(numBursts4)
		return float64(b)*burstPeriod4 + rng.Float64()*burstWidth4
	}
	// Uniform over the gaps: each period contributes (period - width).
	gap := burstPeriod4 - burstWidth4
	g := rng.Float64() * float64(numBursts4) * gap
	b := int(g / gap)
	if b >= numBursts4 {
		b = numBursts4 - 1
	}
	return float64(b)*burstPeriod4 + burstWidth4 + (g - float64(b)*gap)
}

// Histogram buckets the arrival times into equal-width bins over [0,
// window) and returns the per-bin counts — used by tests and by experiment
// binaries to display the workload shape.
func Histogram(times []time.Duration, window time.Duration, bins int) ([]int, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("arrival: bins = %d, want > 0", bins)
	}
	if window <= 0 {
		return nil, fmt.Errorf("arrival: window %v, want > 0", window)
	}
	counts := make([]int, bins)
	for _, t := range times {
		if t < 0 || t >= window {
			return nil, fmt.Errorf("arrival: time %v outside [0,%v)", t, window)
		}
		b := int(float64(t) / float64(window) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts, nil
}
