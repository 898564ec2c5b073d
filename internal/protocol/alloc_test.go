//go:build !race

package protocol

import (
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
)

// TestAttemptSweepAllocs pins a reused Attempt at zero allocations per
// admission attempt: Reset, a full M = 8 sweep, and reminder targeting all
// run in the buffers of the attempt before. Not built under -race, which
// instruments allocation.
func TestAttemptSweepAllocs(t *testing.T) {
	op := sweepOp(t)
	op() // size the buffers
	if got := testing.AllocsPerRun(1000, op); got != 0 {
		t.Errorf("%.0f allocs per Reset + sweep + ReminderTargets, want 0", got)
	}
}

// TestNewSupplierAllocs pins NewSupplier at one allocation, the Supplier
// itself: the admission state is a field of it and the idle alarm is armed in
// place, with no closure or timer beside it.
func TestNewSupplierAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	const runs = 1000
	got := testing.AllocsPerRun(runs, func() {
		if _, err := NewSupplier(2, 4, dac.DAC, clk, 20*time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("%.0f allocs per NewSupplier, want 1", got)
	}
	if n := clk.Pending(); n != runs+1 { // AllocsPerRun adds a warm-up call
		t.Errorf("%d idle alarms armed, want %d", n, runs+1)
	}
}
