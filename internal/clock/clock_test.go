package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSystemClockBasics(t *testing.T) {
	c := System()
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Error("Since not positive after Sleep")
	}
	done := make(chan struct{})
	timer := c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("AfterFunc never fired")
	}
	if timer.Stop() {
		t.Error("Stop after firing reported true")
	}
}

func TestOrDefaults(t *testing.T) {
	if Or(nil) == nil {
		t.Fatal("Or(nil) returned nil")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Error("Or did not pass through a non-nil clock")
	}
}

func TestVirtualManualAdvance(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	stopped := v.AfterFunc(15*time.Millisecond, func() { order = append(order, 99) })
	stopped.Stop()

	v.Advance(5 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("events fired early: %v", order)
	}
	v.Advance(25 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
	if got := v.Elapsed(); got != 30*time.Millisecond {
		t.Errorf("Elapsed = %v, want 30ms", got)
	}
}

// TestVirtualAutoRunSleep: goroutines sleeping on the virtual clock make
// progress under the auto-driver, and virtual time tracks the sleeps.
func TestVirtualAutoRunSleep(t *testing.T) {
	v := NewVirtual()
	stop := v.AutoRun()
	defer stop()

	const sleepers = 4
	var wg sync.WaitGroup
	var total atomic.Int64
	for i := 1; i <= sleepers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := time.Duration(i) * 10 * time.Millisecond
			t0 := v.Now()
			v.Sleep(d)
			got := v.Since(t0)
			if got < d {
				t.Errorf("sleeper %d woke after %v, want >= %v", i, got, d)
			}
			total.Add(int64(got))
		}()
	}
	wg.Wait()
	if v.Elapsed() < 40*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 40ms", v.Elapsed())
	}
}

// TestVirtualAutoRunChain: an AfterFunc chain (each callback scheduling
// the next) runs to completion — the pattern of idle elevation timers.
func TestVirtualAutoRunChain(t *testing.T) {
	v := NewVirtual()
	stop := v.AutoRun()
	defer stop()

	done := make(chan time.Duration, 1)
	var step func(n int)
	step = func(n int) {
		if n == 0 {
			done <- v.Since(Epoch)
			return
		}
		v.AfterFunc(50*time.Millisecond, func() { step(n - 1) })
	}
	step(5)
	select {
	case at := <-done:
		if at != 250*time.Millisecond {
			t.Errorf("chain finished at %v, want 250ms", at)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timer chain never completed")
	}
}

// TestVirtualWakeGating: NoteWake holds advances until WakeDone (or an
// external clock operation) retires the gate.
func TestVirtualWakeGating(t *testing.T) {
	v := NewVirtual()
	fired := make(chan struct{})
	v.AfterFunc(time.Millisecond, func() { close(fired) })
	v.NoteWake()

	stop := v.AutoRun()
	defer stop()
	select {
	case <-fired:
		t.Fatal("advance happened while a wake was pending")
	case <-time.After(3 * time.Millisecond):
	}
	v.WakeDone()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("advance never resumed after WakeDone")
	}
}

// TestVirtualWakeStallFallback: a wake gate that is never retired cannot
// hang the driver forever.
func TestVirtualWakeStallFallback(t *testing.T) {
	v := NewVirtual()
	fired := make(chan struct{})
	v.AfterFunc(time.Millisecond, func() { close(fired) })
	v.NoteWake() // never retired
	stop := v.AutoRun()
	defer stop()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("stall fallback never released the driver")
	}
}

// TestVirtualSetCoalesce: the coalescing window decides how much of the
// timeline one quiescent advance drains. With the default (narrow) window a
// single batch starting at the earliest event fires only that instant's
// neighborhood; a widened window drains the whole spread in one batch.
func TestVirtualSetCoalesce(t *testing.T) {
	run := func(coalesce time.Duration) int {
		v := NewVirtual()
		v.SetCoalesce(coalesce)
		var fired atomic.Int32
		for _, d := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 9 * time.Millisecond} {
			v.AfterFunc(d, func() { fired.Add(1) })
		}
		v.mu.Lock()
		next, ok := v.eng.NextAt()
		if !ok {
			v.mu.Unlock()
			t.Fatal("no scheduled events")
		}
		v.advanceBatchLocked(next)
		v.mu.Unlock()
		return int(fired.Load())
	}
	if got := run(0); got != 1 { // 0 ignored: default 100µs window
		t.Errorf("default window fired %d events in one batch, want 1", got)
	}
	if got := run(10 * time.Millisecond); got != 3 {
		t.Errorf("10ms window fired %d events in one batch, want 3", got)
	}
}

// TestVirtualSetCoalesceAutoRun: a widened window composes with the driver —
// all events still fire, in order, and time lands past the last one.
func TestVirtualSetCoalesceAutoRun(t *testing.T) {
	v := NewVirtual()
	v.SetCoalesce(20 * time.Millisecond)
	const n = 8
	fired := make(chan time.Duration, n)
	for i := 1; i <= n; i++ {
		d := time.Duration(i) * time.Millisecond
		v.AfterFunc(d, func() { fired <- d })
	}
	stop := v.AutoRun()
	defer stop()
	var prev time.Duration
	for i := 0; i < n; i++ {
		select {
		case d := <-fired:
			if d < prev {
				t.Fatalf("event at %v fired after %v", d, prev)
			}
			prev = d
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d events fired", i, n)
		}
	}
	if e := v.Elapsed(); e < n*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= %v", e, n*time.Millisecond)
	}
}
