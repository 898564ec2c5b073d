//go:build !race

package system_test

import (
	"runtime"
	"testing"

	"p2pstream/internal/arrival"
	"p2pstream/internal/dac"
	"p2pstream/internal/experiments"
	"p2pstream/internal/system"
)

// TestRunAllocsPerRequester pins a whole simulation at the reduced scale at
// no more than 0.1 allocations per requesting peer: the peer records, the
// admission slab, the event queue, the directory, the metric samples and
// their series are laid out once, a promotion and a Theorem 1 check
// allocate nothing, and an admission appends its suppliers to one run-wide
// slab. What is left is per run, not per peer. Not built under -race,
// which instruments allocation.
func TestRunAllocsPerRequester(t *testing.T) {
	cfg := experiments.ReducedScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := system.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRequests == 0 {
		t.Fatal("nothing ran")
	}
	perPeer := float64(after.Mallocs-before.Mallocs) / float64(cfg.NumRequesters)
	t.Logf("%.3f allocations per requester", perPeer)
	if perPeer > 0.1 {
		t.Errorf("%.3f allocations per requester, want at most 0.1", perPeer)
	}
}
