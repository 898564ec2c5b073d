//go:build !race

package sim

import "testing"

// TestEngineStepAllocs pins the engine's own cost at zero allocations per
// event in steady state: events live by value in the heap, and a func or
// pointer handler is stored without boxing. Whatever a caller's closure
// captures is the caller's allocation. Not built under -race, which
// instruments allocation.
func TestEngineStepAllocs(t *testing.T) {
	op := holdModel(t, 10_000)
	if got := testing.AllocsPerRun(10_000, op); got != 0 {
		t.Errorf("%.0f allocs per At+Step with 10,000 pending, want 0", got)
	}
}
