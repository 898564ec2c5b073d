package scenario

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"p2pstream/internal/observe"
)

// meanHopsPerLookup computes the run's routing cost: total chord hops over
// total key lookups, across every served requester. This is the per-lookup
// figure the O(log n) claim is about — distinct from the report's
// per-node series, which charts each peer's cumulative total.
func meanHopsPerLookup(rep *Report) float64 {
	var hops, lookups int64
	for _, n := range rep.Nodes {
		if n.Err != nil {
			continue
		}
		hops += n.LookupHops
		lookups += n.Lookups
	}
	if lookups == 0 {
		return 0
	}
	return float64(hops) / float64(lookups)
}

// TestChordScaleHops runs the chord-scale family — replicated rings of 64,
// 256 and 1024 members, each surviving an owner crash with zero lookup
// misses — and asserts the routing cost's shape: mean hops per lookup grows
// with ring size (finger tables are actually being exercised, not a
// successor-walk degenerate) yet stays within the O(log n) envelope at the
// four-digit ring. Like the megacrowd suite it skips under the race
// detector, where the conformance catalog's replicated-churn entry already
// covers every code path at a race-checkable size.
func TestChordScaleHops(t *testing.T) {
	if raceEnabled {
		t.Skip("chord-scale run skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("chord-scale run skipped in -short mode")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	means := make([]float64, 0, 3)
	sizes := []int{64, 256, 1024}
	for _, spec := range ChordScaleCatalog() {
		start := time.Now()
		rep, err := Run(spec)
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Check enforces the family's churn-window contract: zero lookup
		// misses and at least one replica-answered lookup per run.
		if err := rep.Check(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got, want := rep.Served(), len(spec.Requesters); got != want {
			t.Fatalf("%s: served %d of %d requesters", spec.Name, got, want)
		}
		mean := meanHopsPerLookup(rep)
		if mean <= 0 {
			t.Fatalf("%s: no chord lookups recorded", spec.Name)
		}
		means = append(means, mean)
		t.Logf("%s: wall %v, mean %.2f hops/lookup, %d replica-answered, %d misses",
			spec.Name, wall.Round(time.Millisecond), mean, rep.Events.Of(observe.ReplicaAnswered).N, rep.Events.Of(observe.LookupMiss).N)
	}

	// Growth: each quadrupling of the ring must cost more hops per lookup,
	// up to a small slack for sampling noise. A flat or falling curve means
	// lookups stopped routing (answering from a local cache, or a collapsed
	// ring) and the scale family is no longer measuring anything.
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1]*0.95 {
			t.Errorf("hops/lookup fell from %.2f (n=%d) to %.2f (n=%d): expected O(log n) growth",
				means[i-1], sizes[i-1], means[i], sizes[i])
		}
	}
	// Envelope: the four-digit ring stays within 2x the log2 bound. With
	// V=4 virtual positions per member the ring has 4n positions, so the
	// ideal half-log distance is log2(4n)/2 = 6 for n=1024; the 2x bound
	// leaves room for stabilization lag and replica detours without
	// admitting a linear walk (which would cost hundreds of hops).
	if bound := 2 * math.Log2(float64(4*sizes[2])); means[2] > bound {
		t.Errorf("chord-1k: %.2f hops/lookup exceeds 2·log2(4n) = %.1f", means[2], bound)
	}
}
