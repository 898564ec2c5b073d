//go:build !race

package sim

import "testing"

// TestEngineStepAllocs pins the engine's own cost at zero allocations per
// event in steady state: events live by value in the slab, and a func or
// pointer handler is stored without boxing. Whatever a caller's closure
// captures is the caller's allocation. Not built under -race, which
// instruments allocation.
func TestEngineStepAllocs(t *testing.T) {
	_, op := holdModel(t, 10_000)
	if got := testing.AllocsPerRun(10_000, op); got != 0 {
		t.Errorf("%.0f allocs per At+Step with 10,000 pending, want 0", got)
	}
}

// TestEngineStorageAllocs pins the queue's storage to its peak pending
// count: however the events spread across buckets, the slab is the only
// storage that grows, and fired slots are reused before it does. After a
// hold model with 10,000 pending it holds at most twice the peak.
func TestEngineStorageAllocs(t *testing.T) {
	e, op := holdModel(t, 10_000)
	peak := e.Pending()
	for i := 0; i < 100_000; i++ {
		op()
		peak = max(peak, e.Pending())
	}
	if got := cap(e.slab); got > 2*peak {
		t.Errorf("queue holds %d slots for a peak of %d pending, want at most %d", got, peak, 2*peak)
	}
}
