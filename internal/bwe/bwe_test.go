package bwe

import (
	"testing"
	"time"
)

// simulateLink drives an estimator against a fluid model of a
// fixed-capacity bottleneck for the given span: each step the sender
// offers rate x dt bytes, the link services capacity x dt, the standing
// queue is the difference, and the RTT fed back is base + queue/capacity.
// Returns the final estimate.
func simulateLink(e *Estimator, capacity int64, base time.Duration, span time.Duration) int64 {
	const dt = 10 * time.Millisecond
	now := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var queue float64
	for elapsed := time.Duration(0); elapsed < span; elapsed += dt {
		now = now.Add(dt)
		offered := float64(e.Rate()) * dt.Seconds()
		serviced := float64(capacity) * dt.Seconds()
		queue += offered - serviced
		if queue < 0 {
			queue = 0
		}
		rtt := base + time.Duration(queue/float64(capacity)*float64(time.Second))
		delivered := offered
		if delivered > serviced {
			delivered = serviced
		}
		e.OnAck(now, int(delivered), rtt)
	}
	return e.Rate()
}

// TestEstimatorConvergesFromBelow: starting at a fraction of the link
// capacity, the estimate climbs into the convergence envelope.
func TestEstimatorConvergesFromBelow(t *testing.T) {
	const capacity = 100_000
	e := New(Config{Initial: capacity / 4, Increase: 40_000})
	got := simulateLink(e, capacity, 20*time.Millisecond, 20*time.Second)
	if got < capacity*7/10 || got > capacity*11/10 {
		t.Errorf("estimate from below = %d, want within [0.7, 1.1] x %d", got, capacity)
	}
}

// TestEstimatorConvergesFromAbove: starting well above capacity, the
// estimator backs off into the envelope instead of standing on a growing
// queue.
func TestEstimatorConvergesFromAbove(t *testing.T) {
	const capacity = 100_000
	e := New(Config{Initial: capacity * 4})
	got := simulateLink(e, capacity, 20*time.Millisecond, 20*time.Second)
	if got < capacity*6/10 || got > capacity*11/10 {
		t.Errorf("estimate from above = %d, want within [0.6, 1.1] x %d", got, capacity)
	}
	// The estimate only ever falls by a multiplicative decrease, so one
	// below Initial within the first second shows the first verdict cut.
	first := New(Config{Initial: capacity * 4})
	if r := simulateLink(first, capacity, 20*time.Millisecond, time.Second); r >= capacity*4 {
		t.Errorf("estimate after 1s on a 4x-overloaded link = %d: no multiplicative decrease", r)
	}
}

// TestEstimatorRespectsMax: the committed class offer caps the estimate no
// matter how much headroom the link has.
func TestEstimatorRespectsMax(t *testing.T) {
	const capacity = 1_000_000
	const committed = 50_000
	e := New(Config{Initial: committed, Max: committed})
	got := simulateLink(e, capacity, 10*time.Millisecond, 5*time.Second)
	if got != committed {
		t.Errorf("estimate = %d, want pinned at committed %d", got, committed)
	}
}

// TestEstimatorMinFloor: the estimate never goes below Min.
func TestEstimatorMinFloor(t *testing.T) {
	e := New(Config{Initial: 10_000, Min: 8_000})
	now := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	e.OnAck(now, 1000, 10*time.Millisecond) // the propagation baseline
	for i := 0; i < 50; i++ {
		// A second of standing queue, one hold period apart: every ack cuts.
		now = now.Add(time.Second)
		e.OnAck(now, 1000, time.Second)
	}
	if e.Rate() != 8_000 {
		t.Errorf("rate after sustained overuse = %d, want floored at 8000", e.Rate())
	}
}
