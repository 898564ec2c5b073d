// Package bandwidth models peer bandwidth as exact binary fractions of the
// media playback rate R0.
//
// The paper ("On Peer-to-Peer Media Streaming", ICDCS 2002) restricts the
// out-bound bandwidth offered by a supplying peer to the values
// R0/2, R0/4, ..., R0/2^K: a class-c peer (1 <= c <= K) offers R0/2^c.
// This special value set is what makes optimal media data assignment
// tractable (it avoids an NP-hard bin-packing problem), and it also means
// every bandwidth quantity in the system is an exact dyadic rational.
//
// To keep all arithmetic exact we represent bandwidth as a Fraction: an
// integer count of 1/2^20 units of R0. All legal class offers (K <= 20)
// and all sums of offers are exactly representable.
package bandwidth

import (
	"errors"
	"fmt"
	"sort"
)

// FracBits is the fixed-point precision: one Fraction unit is R0 / 2^FracBits.
const FracBits = 20

// R0 is the media playback rate expressed in Fraction units.
const R0 Fraction = 1 << FracBits

// MaxClass is the largest representable peer class. A class-c peer offers
// R0/2^c, so c must not exceed the fixed-point precision.
const MaxClass = FracBits

// Fraction is a bandwidth amount in units of R0/2^FracBits. It is exact for
// every value that occurs in the protocol (sums of R0/2^c offers).
type Fraction int64

// Class identifies a peer bandwidth class. A class-c peer offers out-bound
// bandwidth R0/2^c. Lower numbers are "higher" classes (more bandwidth).
type Class int

// Valid reports whether c is a legal class in a system with maxClass classes.
func (c Class) Valid(maxClass Class) bool {
	return c >= 1 && c <= maxClass && maxClass <= MaxClass
}

// Offer returns the out-bound bandwidth offered by a class-c peer: R0/2^c.
// It panics if c is outside [1, MaxClass]; call Valid first for untrusted
// input.
func (c Class) Offer() Fraction {
	if c < 1 || c > MaxClass {
		panic(fmt.Sprintf("bandwidth: class %d outside [1, %d]", c, MaxClass))
	}
	return R0 >> uint(c)
}

// String implements fmt.Stringer ("class-3").
func (c Class) String() string { return fmt.Sprintf("class-%d", int(c)) }

// String renders the fraction as a multiple of R0 ("0.25*R0").
func (f Fraction) String() string {
	return fmt.Sprintf("%g*R0", float64(f)/float64(R0))
}

// OfR0 returns the fraction as a float64 multiple of R0 (0.5 for R0/2).
func (f Fraction) OfR0() float64 { return float64(f) / float64(R0) }

// Sum returns the exact sum of the given fractions.
func Sum(fs ...Fraction) Fraction {
	var total Fraction
	for _, f := range fs {
		total += f
	}
	return total
}

// SumOffers returns the exact aggregate offer of the given classes.
func SumOffers(classes []Class) Fraction {
	var total Fraction
	for _, c := range classes {
		total += c.Offer()
	}
	return total
}

// Sessions returns how many full playback-rate streaming sessions the
// aggregate bandwidth f can sustain: floor(f / R0). This is the paper's
// definition of system capacity (Section 2, item 4).
func Sessions(f Fraction) int {
	if f < 0 {
		return 0
	}
	return int(f / R0)
}

// ExactSubsetExists reports whether any subset of offers sums to exactly
// target. It runs in O(2^n) and exists as the exhaustive reference the
// requester's greedy admission sweep is tested against; do not call it on
// large inputs.
func ExactSubsetExists(offers []Fraction, target Fraction) bool {
	if target == 0 {
		return true
	}
	if len(offers) > 24 {
		panic("bandwidth: ExactSubsetExists input too large")
	}
	// Prune by sorting descending and using a depth-first search with a
	// remaining-sum bound.
	sorted := append([]Fraction(nil), offers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	suffix := make([]Fraction, len(sorted)+1)
	for i := len(sorted) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + sorted[i]
	}
	var dfs func(i int, remaining Fraction) bool
	dfs = func(i int, remaining Fraction) bool {
		if remaining == 0 {
			return true
		}
		if i >= len(sorted) || remaining < 0 || suffix[i] < remaining {
			return false
		}
		if sorted[i] <= remaining && dfs(i+1, remaining-sorted[i]) {
			return true
		}
		return dfs(i+1, remaining)
	}
	return dfs(0, target)
}

// Distribution describes the population share of each class. Index i holds
// the share of class i+1. Shares must be non-negative and sum to 1 (within
// 1e-9); Validate checks this.
type Distribution []float64

// Validate returns an error if the distribution is malformed.
func (d Distribution) Validate() error {
	if len(d) == 0 {
		return errors.New("bandwidth: empty class distribution")
	}
	if len(d) > MaxClass {
		return fmt.Errorf("bandwidth: distribution has %d classes, max %d", len(d), MaxClass)
	}
	var sum float64
	for i, share := range d {
		if share < 0 {
			return fmt.Errorf("bandwidth: class %d share %g is negative", i+1, share)
		}
		sum += share
	}
	if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("bandwidth: class shares sum to %g, want 1", sum)
	}
	return nil
}

// NumClasses returns the number of classes K described by the distribution.
func (d Distribution) NumClasses() Class { return Class(len(d)) }

// Pick maps a uniform random value u in [0,1) to a class according to the
// distribution. The mapping is deterministic: cumulative shares.
func (d Distribution) Pick(u float64) Class {
	var cum float64
	for i, share := range d {
		cum += share
		if u < cum {
			return Class(i + 1)
		}
	}
	return Class(len(d)) // u==~1 or rounding: last class
}
