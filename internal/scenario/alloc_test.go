//go:build !race

package scenario

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// megacrowdMallocsPerRequester bounds what a Megacrowd(1000) run allocates
// per requester: the admission chain of lookup, probes, reminders and
// triggers, the session and its teardown. It is the highest reading landed
// over seeds 1–3 (188.9) plus 5%; the same runs read 224.9–230.5 while every
// message passed by value was boxed on its way to the wire.
const megacrowdMallocsPerRequester = 198

// TestMegacrowdAllocs pins the heap allocations of a thousand-requester
// flash crowd on the virtual network, divided over its requesters. Each run
// starts from a collected heap and runs with the collector off, so every
// seed starts with the same empty pools and none is refilled mid-run by a
// collection that load happened to time. Not built under -race, which
// instruments allocation.
func TestMegacrowdAllocs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		spec := Megacrowd(1000)
		spec.Seed = seed
		var before, after runtime.MemStats
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		rep, err := Run(spec)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if served := rep.Served(); served != len(spec.Requesters) {
			t.Fatalf("seed %d: served %d of %d requesters", seed, served, len(spec.Requesters))
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(len(spec.Requesters))
		t.Logf("seed %d: %.1f allocations per requester", seed, per)
		if per > megacrowdMallocsPerRequester {
			t.Errorf("seed %d: %.1f allocations per requester, want at most %d", seed, per, megacrowdMallocsPerRequester)
		}
	}
}
