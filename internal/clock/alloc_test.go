//go:build !race

package clock

import (
	"testing"
	"time"

	"p2pstream/internal/sim"
)

// TestTimerAllocs pins a virtual timer at one allocation from AfterFunc to
// firing, on both virtual clocks: the timer handle is itself the event the
// engine queues, so there is no closure and no event object beside it. Not
// built under -race, which instruments allocation.
func TestTimerAllocs(t *testing.T) {
	fired := 0
	fn := func() { fired++ }

	var eng sim.Engine
	onEngine := ForEngine(&eng)
	if got := testing.AllocsPerRun(1000, func() {
		onEngine.AfterFunc(time.Millisecond, fn)
		eng.Step()
	}); got > 1 {
		t.Errorf("engine clock: %.0f allocs per AfterFunc + fire, want at most 1", got)
	}

	virtual := NewVirtual()
	virtual.AfterFunc(time.Millisecond, fn) // sizes the due-callback buffer
	virtual.Advance(time.Millisecond)
	if got := testing.AllocsPerRun(1000, func() {
		virtual.AfterFunc(time.Millisecond, fn)
		virtual.Advance(time.Millisecond)
	}); got > 1 {
		t.Errorf("virtual clock: %.0f allocs per AfterFunc + fire, want at most 1", got)
	}
	if fired != 2*1001+1 {
		t.Errorf("%d timers fired, want %d", fired, 2*1001+1)
	}
}
