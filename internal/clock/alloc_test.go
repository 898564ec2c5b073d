//go:build !race

package clock

import (
	"testing"
	"time"
)

// TestTimerAllocs pins a virtual timer at one allocation from AfterFunc to
// firing: the timer handle is itself the event the clock's heap queues, so
// there is no closure and no event object beside it. Not built under -race,
// which instruments allocation.
func TestTimerAllocs(t *testing.T) {
	fired := 0
	fn := func() { fired++ }

	virtual := NewVirtual()
	virtual.AfterFunc(time.Millisecond, fn) // sizes the due-callback buffer
	virtual.Advance(time.Millisecond)
	if got := testing.AllocsPerRun(1000, func() {
		virtual.AfterFunc(time.Millisecond, fn)
		virtual.Advance(time.Millisecond)
	}); got > 1 {
		t.Errorf("virtual clock: %.0f allocs per AfterFunc + fire, want at most 1", got)
	}
	if fired != 1001+1 {
		t.Errorf("%d timers fired, want %d", fired, 1001+1)
	}
}

// TestAlarmAllocs pins a re-armed Alarm at zero allocations from Reset to
// firing on both clocks: the owner's storage is the heap entry (or, on the
// wall clock, holds the one time.Timer that is re-armed).
func TestAlarmAllocs(t *testing.T) {
	fired := 0
	count := HandlerFunc(func() { fired++ })

	virtual := NewVirtual()
	var onVirtual Alarm
	onVirtual.Init(virtual, count)
	onVirtual.Reset(time.Millisecond) // sizes the batch buffer
	virtual.Advance(time.Millisecond)
	if got := testing.AllocsPerRun(1000, func() {
		onVirtual.Reset(time.Millisecond)
		virtual.Advance(time.Millisecond)
	}); got != 0 {
		t.Errorf("virtual clock: %.0f allocs per Reset + fire, want 0", got)
	}
	if fired != 1001+1 {
		t.Errorf("%d alarms fired, want %d", fired, 1001+1)
	}

	rang := make(chan struct{}, 1)
	var onWall Alarm
	onWall.Init(System(), HandlerFunc(func() { rang <- struct{}{} }))
	onWall.Reset(0) // creates the timer
	<-rang
	if got := testing.AllocsPerRun(100, func() {
		onWall.Reset(10 * time.Microsecond)
		<-rang
	}); got != 0 {
		t.Errorf("system clock: %.0f allocs per Reset + fire, want 0", got)
	}
}

// TestSleepAllocs pins a steady-state Virtual.Sleep at zero allocations:
// the goroutine parks on a pooled sleeper, not on a fresh channel and
// closure.
func TestSleepAllocs(t *testing.T) {
	clk := NewVirtual()
	defer clk.AutoRun()()
	clk.Sleep(time.Millisecond) // fills the pool, sizes the batch buffer
	if got := testing.AllocsPerRun(100, func() { clk.Sleep(time.Millisecond) }); got != 0 {
		t.Errorf("%.0f allocs per Sleep, want 0", got)
	}
}
