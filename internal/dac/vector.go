// Package dac implements DAC_p2p, the paper's distributed differentiated
// admission control protocol (Section 4), plus the non-differentiated
// baseline NDAC_p2p used in the evaluation.
//
// Supplying-peer side (Section 4.1): each supplying peer keeps an admission
// probability vector Pb[1..K]. A class-j request reaching an idle supplier
// is granted with probability Pb[j]. A class-x supplier initializes
// Pb[j] = 1 for j <= x and Pb[j] = 1/2^(j-x) for j > x; classes with
// Pb[j] = 1 are its "favored" classes. The vector relaxes (doubles, capped
// at 1) after every idle timeout T_out and after a served session during
// which no favored-class request arrived; it tightens (re-anchors at the
// highest reminder class) when reminders were left during a busy session.
//
// Requesting-peer side (Section 4.2): a class-j requester probes M random
// candidates from high class to low class, accumulates grants until the
// aggregate offer is exactly R0, and on failure leaves reminders on the
// busy candidates that currently favor class j (again accumulating offers
// up to R0). That sweep is protocol.Attempt; this package holds only the
// side's retry schedule, BackoffConfig: after its i-th rejection the
// requester backs off T_bkf · E_bkf^(i-1).
package dac

import (
	"fmt"
	"math"

	"p2pstream/internal/bandwidth"
)

// Vector is an admission probability vector. Vector[j-1] is the probability
// of granting a class-j request. Invariants (checked by Validate): values
// are in (0, 1], non-increasing in j, and the favored set {j : Pb[j] == 1}
// is a non-empty prefix of the classes.
type Vector []float64

// NewVector returns the initial vector of a class-own supplier in a system
// with numClasses classes: 1.0 up to the supplier's own class, then halving
// (paper Section 4.1(a): a class-2 supplier with K = 4 starts with
// [1.0, 1.0, 0.5, 0.25]).
func NewVector(own bandwidth.Class, numClasses bandwidth.Class) (Vector, error) {
	if err := checkClasses(own, numClasses); err != nil {
		return nil, err
	}
	return render(own, numClasses), nil
}

func checkClasses(own, numClasses bandwidth.Class) error {
	if numClasses < 1 || numClasses > bandwidth.MaxClass {
		return fmt.Errorf("dac: numClasses %d outside [1, %d]", numClasses, bandwidth.MaxClass)
	}
	if !own.Valid(numClasses) {
		return fmt.Errorf("dac: own class %d invalid for K=%d", own, numClasses)
	}
	return nil
}

// prob is the probability a vector anchored at class anchor gives class j:
// 1 down to the anchor, halving with every class beneath it. Powers of two,
// so exact.
func prob(j, anchor bandwidth.Class) float64 {
	if j <= anchor {
		return 1
	}
	return 1 / float64(uint64(1)<<uint(j-anchor))
}

// render writes out the k-class vector anchored at class anchor. A Supplier
// keeps only the anchor; this is the vector it stands for.
func render(anchor, k bandwidth.Class) Vector {
	v := make(Vector, k)
	for j := range v {
		v[j] = prob(bandwidth.Class(j+1), anchor)
	}
	return v
}

// Prob returns the admission probability applied to class-j requests.
func (v Vector) Prob(j bandwidth.Class) float64 {
	if j < 1 || int(j) > len(v) {
		return 0
	}
	return v[j-1]
}

// Favors reports whether class j is currently favored (Pb[j] == 1.0).
func (v Vector) Favors(j bandwidth.Class) bool {
	return j >= 1 && int(j) <= len(v) && v[j-1] == 1.0
}

// LowestFavored returns the largest class number j with Pb[j] == 1.0, i.e.
// the lowest favored class (this is the quantity plotted in the paper's
// Figure 7). Every well-formed vector favors at least class 1.
func (v Vector) LowestFavored() bandwidth.Class {
	lowest := bandwidth.Class(0)
	for j := bandwidth.Class(1); int(j) <= len(v); j++ {
		if v[j-1] == 1.0 {
			lowest = j
		}
	}
	return lowest
}

// AllOpen reports whether every class is favored.
func (v Vector) AllOpen() bool {
	for _, p := range v {
		if p != 1.0 {
			return false
		}
	}
	return len(v) > 0
}

// Validate checks the vector invariants.
func (v Vector) Validate() error {
	if len(v) == 0 {
		return fmt.Errorf("dac: empty vector")
	}
	if v[0] != 1.0 {
		return fmt.Errorf("dac: class 1 probability %g, want 1.0", v[0])
	}
	for i, p := range v {
		if p <= 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("dac: probability %g for class %d outside (0,1]", p, i+1)
		}
		if i > 0 && p > v[i-1] {
			return fmt.Errorf("dac: probabilities increase from class %d to %d (%g > %g)", i, i+1, p, v[i-1])
		}
	}
	return nil
}
