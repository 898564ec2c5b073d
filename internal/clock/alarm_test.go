package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backend is one Clock an Alarm runs on, with the means to let d of its
// time pass.
type backend struct {
	name string
	clk  Clock
	pass func(d time.Duration)
}

// virtualBackends is the Virtual clock driven by hand: Advance fires the
// handlers inline on the caller.
func virtualBackends() []backend {
	v := NewVirtual()
	return []backend{{"Virtual", v, v.Advance}}
}

func TestAlarmFiresOncePerReset(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			fired := 0
			var a Alarm
			a.Init(b.clk, HandlerFunc(func() { fired++ }))
			b.pass(time.Second)
			if fired != 0 {
				t.Fatalf("unarmed alarm fired %d times", fired)
			}
			for i := 1; i <= 3; i++ {
				a.Reset(10 * time.Millisecond)
				b.pass(9 * time.Millisecond)
				if fired != i-1 {
					t.Fatalf("arm %d fired early", i)
				}
				b.pass(time.Millisecond)
				if fired != i {
					t.Fatalf("after arm %d: fired %d times", i, fired)
				}
			}
			if a.Stop() {
				t.Error("Stop after firing reported true")
			}
		})
	}
}

// TestAlarmResetSupersedes re-arms a pending alarm — later, earlier, and
// back onto an instant an older arm still has an entry for: only the last
// arm fires, once, at its own instant.
func TestAlarmResetSupersedes(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			var at []time.Duration
			start := b.clk.Now()
			var a Alarm
			a.Init(b.clk, HandlerFunc(func() { at = append(at, b.clk.Since(start)) }))
			a.Reset(10 * time.Millisecond)
			a.Reset(30 * time.Millisecond) // later
			a.Reset(5 * time.Millisecond)  // earlier than both
			a.Reset(10 * time.Millisecond) // the first arm's instant again
			b.pass(time.Second)
			if len(at) != 1 || at[0] != 10*time.Millisecond {
				t.Fatalf("fired at %v, want once at 10ms", at)
			}
		})
	}
}

func TestAlarmStopPreventsFiring(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			fired := 0
			var a Alarm
			a.Init(b.clk, HandlerFunc(func() { fired++ }))
			if a.Stop() {
				t.Error("Stop of a never-armed alarm reported true")
			}
			a.Reset(time.Millisecond)
			if !a.Stop() {
				t.Fatal("Stop of a pending alarm reported false")
			}
			if a.Stop() {
				t.Error("second Stop reported true")
			}
			b.pass(time.Second)
			if fired != 0 {
				t.Fatalf("stopped alarm fired %d times", fired)
			}
		})
	}
}

// TestAlarmStopAtTheFiringInstant stops an alarm from a handler that fires
// at the same instant, ahead of it: on a Virtual clock the victim has
// already been popped into the instant's batch, and Stop must still win.
func TestAlarmStopAtTheFiringInstant(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			var victim, rearmed Alarm
			victimFired, rearmedAt := 0, []time.Duration(nil)
			start := b.clk.Now()
			stopped := false
			b.clk.AfterFunc(time.Millisecond, func() {
				stopped = victim.Stop()
				rearmed.Reset(time.Millisecond) // superseding a queued firing cancels it too
			})
			victim.Init(b.clk, HandlerFunc(func() { victimFired++ }))
			victim.Reset(time.Millisecond)
			rearmed.Init(b.clk, HandlerFunc(func() { rearmedAt = append(rearmedAt, b.clk.Since(start)) }))
			rearmed.Reset(time.Millisecond)
			b.pass(time.Second)
			if !stopped {
				t.Error("Stop of an alarm due at the instant being fired reported false")
			}
			if victimFired != 0 {
				t.Errorf("alarm fired %d times after Stop reported true", victimFired)
			}
			if len(rearmedAt) != 1 || rearmedAt[0] != 2*time.Millisecond {
				t.Errorf("re-armed alarm fired at %v, want once at 2ms", rearmedAt)
			}
		})
	}
}

func TestAlarmResetFromOwnHandler(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			fired := 0
			var a Alarm
			a.Init(b.clk, HandlerFunc(func() {
				if fired++; fired == 1 {
					a.Reset(time.Millisecond)
				}
			}))
			a.Reset(time.Millisecond)
			b.pass(time.Millisecond)
			if fired != 1 {
				t.Fatalf("fired %d times in the first millisecond, want 1", fired)
			}
			b.pass(time.Second)
			if fired != 2 {
				t.Fatalf("fired %d times, want 2: a Reset from the handler arms exactly one firing", fired)
			}
		})
	}
}

func TestAlarmOnSystemClock(t *testing.T) {
	fired := make(chan struct{}, 4)
	var a Alarm
	a.Init(System(), HandlerFunc(func() { fired <- struct{}{} }))
	if a.Stop() {
		t.Error("Stop of a never-armed alarm reported true")
	}
	for i := 0; i < 2; i++ { // the second round re-arms the first's timer
		a.Reset(time.Millisecond)
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("alarm did not fire")
		}
	}
	a.Reset(time.Hour)
	if !a.Stop() {
		t.Error("Stop of a pending alarm reported false")
	}
	a.Reset(time.Hour)
	a.Reset(time.Millisecond) // supersedes the hour
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed alarm did not fire")
	}
	select {
	case <-fired:
		t.Fatal("alarm fired more often than it was armed")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestSameInstantFIFOAcrossBatch schedules 1,000 events for one instant, as
// timers and as alarms alternately: the instant is popped as one batch and
// must still run in scheduling order.
func TestSameInstantFIFOAcrossBatch(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			const n = 1000
			var order []int
			alarms := make([]Alarm, n)
			for i := 0; i < n; i++ {
				i := i
				note := func() { order = append(order, i) }
				if i%2 == 0 {
					b.clk.AfterFunc(time.Millisecond, note)
				} else {
					alarms[i].Init(b.clk, HandlerFunc(note))
					alarms[i].Reset(time.Millisecond)
				}
			}
			b.pass(time.Millisecond)
			if len(order) != n {
				t.Fatalf("%d events fired, want %d", len(order), n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("event %d fired in position %d", got, i)
				}
			}
		})
	}
}

// TestSameInstantZeroDelayFiresAfterQueued: an event a handler schedules
// for the instant being fired runs in the same advance, after every event
// that was already queued for that instant.
func TestSameInstantZeroDelayFiresAfterQueued(t *testing.T) {
	for _, b := range virtualBackends() {
		t.Run(b.name, func(t *testing.T) {
			var order []string
			b.clk.AfterFunc(time.Millisecond, func() {
				order = append(order, "first")
				b.clk.AfterFunc(0, func() { order = append(order, "spawned") })
			})
			b.clk.AfterFunc(time.Millisecond, func() { order = append(order, "second") })
			b.pass(time.Millisecond)
			want := []string{"first", "second", "spawned"}
			if len(order) != len(want) {
				t.Fatalf("fired %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("fired %v, want %v", order, want)
				}
			}
		})
	}
}

// TestVirtualNowConcurrent hammers the lock-free reads against the
// auto-advance driver: eight goroutines read Now, arm timers and sleep.
// Every goroutine must see time move forward only, wake from every sleep no
// earlier than asked, and see every timer it armed fire.
func TestVirtualNowConcurrent(t *testing.T) {
	clk := NewVirtual()
	defer clk.AutoRun()()
	const workers, rounds = 8, 50
	var fired atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := clk.Now()
			for i := 0; i < rounds; i++ {
				d := time.Duration(1+(w+i)%5) * time.Millisecond
				clk.AfterFunc(d, func() { fired.Add(1) })
				clk.Sleep(d)
				now := clk.Now()
				if got := now.Sub(last); got < d {
					t.Errorf("worker %d: Now moved %v across a %v sleep", w, got, d)
					return
				}
				last = now
			}
			clk.Sleep(10 * time.Millisecond) // past every timer armed above
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("a sleeper was never woken")
	}
	if got := fired.Load(); got != workers*rounds {
		t.Errorf("%d timers fired, want %d", got, workers*rounds)
	}
}
