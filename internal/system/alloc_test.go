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

// TestRunAllocsPerRequester pins a whole simulation at the reduced scale
// to a bound on allocations per requesting peer, for each candidate
// source. With the directory: the peer records, the admission slab, the
// event queue, the directory, the metric samples and their series are
// laid out once, a promotion and a Theorem 1 check allocate nothing, and
// an admission appends its suppliers to one run-wide slab, so what is left
// is per run, not per peer. With Chord: a draw hashes its key in a kept
// buffer and searches the ring in place, so what is left is the ring and
// its index growing. Not built under -race, which instruments allocation.
func TestRunAllocsPerRequester(t *testing.T) {
	for _, tt := range []struct {
		lookup system.LookupKind
		max    float64
	}{
		{system.LookupDirectory, 0.1},
		{system.LookupChord, 0.05},
	} {
		t.Run(tt.lookup.String(), func(t *testing.T) {
			cfg := experiments.ReducedScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
			cfg.Lookup = tt.lookup
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
			if perPeer > tt.max {
				t.Errorf("%.3f allocations per requester, want at most %g", perPeer, tt.max)
			}
		})
	}
}
