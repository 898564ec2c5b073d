//go:build !race

package protocol

import "testing"

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
