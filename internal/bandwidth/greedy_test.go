package bandwidth_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/protocol"
)

// The greedy exact-R0 scan over offers taken high class first is
// implemented once, in protocol.Attempt. These tests pin the scan's
// bandwidth arithmetic: an Attempt whose candidates all grant is that scan
// over their offers.

// grantAll sweeps an Attempt over candidates of the given classes that all
// grant, and returns it finished.
func grantAll(classes []bandwidth.Class) *protocol.Attempt {
	att := protocol.NewAttempt(classes)
	for {
		idx, ok := att.Next()
		if !ok {
			return att
		}
		att.Record(idx, dac.Granted, true)
	}
}

// TestGreedyExactMatchesExhaustive: with class offers (binary fractions),
// the greedy scan reaches exactly R0 whenever any subset of the offers
// does.
func TestGreedyExactMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(10)
		classes := make([]bandwidth.Class, n)
		offers := make([]bandwidth.Fraction, n)
		for i := range classes {
			classes[i] = bandwidth.Class(1 + rng.Intn(5))
			offers[i] = classes[i].Offer()
		}
		got := grantAll(classes).Admitted()
		if exists := bandwidth.ExactSubsetExists(offers, bandwidth.R0); got != exists {
			t.Fatalf("classes %v: greedy exact=%v, exhaustive exists=%v", classes, got, exists)
		}
	}
}

// TestGreedyExactProperties: the scan picks each candidate at most once,
// high class first with ties in position order, never overshoots R0, and
// admits exactly when its picks sum to R0.
func TestGreedyExactProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		classes := make([]bandwidth.Class, 0, len(raw))
		for _, r := range raw {
			classes = append(classes, bandwidth.Class(1+int(r)%6))
		}
		att := grantAll(classes)
		var sum bandwidth.Fraction
		prev := -1
		for _, i := range att.Chosen() {
			if i < 0 || i >= len(classes) {
				return false
			}
			if prev >= 0 && (classes[i] < classes[prev] || classes[i] == classes[prev] && i <= prev) {
				return false
			}
			prev = i
			sum += classes[i].Offer()
		}
		return sum <= bandwidth.R0 && att.Admitted() == (sum == bandwidth.R0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
