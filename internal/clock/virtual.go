package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/sim"
)

// Virtual is a concurrency-safe virtual clock: real, multi-goroutine code
// (the live node, the virtual network) runs unmodified against it, while
// virtual time advances only when the system is quiescent — so a scenario
// spanning minutes of protocol time executes in milliseconds of wall time
// and never depends on wall-clock pacing.
//
// Time is kept by an internal sim.Engine. Advance it either manually
// (Advance, from a single driving goroutine) or with AutoRun, which starts
// a background driver that repeatedly waits for the system to go idle and
// then jumps to the next scheduled event. Quiescence is detected two ways:
//
//   - activity: every public call bumps a generation counter; the driver
//     only advances after the counter has been stable for a grace period
//     of wall time (every goroutine still doing work at the current
//     virtual instant keeps touching the clock or the virtual network);
//   - wakes: waking a sleeper (or, via NoteWake, delivering to a blocked
//     virtual-network reader) blocks further advances until the woken
//     goroutine performs its next clock operation (or WakeDone is called),
//     closing the race between "time fired" and "the woken code reacted".
//
// The grace period trades wall-clock speed against robustness to goroutine
// scheduling hiccups; the defaults keep whole-cluster tests deterministic
// under -race while finishing in well under a second.
type Virtual struct {
	// mu guards the heap, the batch under collection and the coalescing
	// window. Reading the time and signalling activity take no lock: now
	// mirrors the engine's clock, gen and wakes are atomics.
	mu  sync.Mutex
	eng sim.Engine
	now atomic.Int64 // eng.Now(), stored before an instant's batch is released

	gen   atomic.Uint64 // bumped on every external call (activity signal)
	wakes atomic.Int64  // woken goroutines that have not yet acted

	due      []*Alarm  // the instant's batch: alarms popped under mu, run outside it
	sleepers sync.Pool // parked-goroutine alarms (*sleeper), bound to this clock

	grace    time.Duration // wall-time quiet window required before advancing
	poll     time.Duration // wall-time driver poll interval
	coalesce time.Duration // virtual window of events fired per advance
	stall    time.Duration // wall-time cap on waiting for a woken goroutine

	// Scale mode (SetCoalesce): the driver pins the coalescing window and,
	// while the next event still falls inside it, advances after a single
	// poll of quiet instead of the full grace. Causal chains — a delivery
	// whose handler schedules the next hop a link latency later — then
	// drain at poll speed; the full grace is paid once per window, not once
	// per hop.
	scale    bool
	batchEnd time.Duration // exclusive end of the pinned window
	// slept is set when an instant woke a goroutine parked in Sleep: a
	// scale-mode window gives it a few scheduler turns before going on.
	slept atomic.Bool
}

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual {
	return &Virtual{
		grace:    500 * time.Microsecond,
		poll:     50 * time.Microsecond,
		coalesce: 100 * time.Microsecond,
		stall:    20 * time.Millisecond,
	}
}

// SetCoalesce widens (or narrows) the virtual window of events fired per
// quiescent advance and switches the driver into scale mode: within one
// window, successive advances wait only for the wake gate plus one quiet
// poll, not the full grace. Population-scale scenarios set it so a whole
// window of causally-chained deliveries drains at poll speed; d <= 0 is
// ignored. Call it before AutoRun.
func (v *Virtual) SetCoalesce(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.coalesce = d
	v.scale = true
	v.mu.Unlock()
}

// Now returns Epoch plus the elapsed virtual time.
func (v *Virtual) Now() time.Time {
	v.touch()
	return Epoch.Add(v.Elapsed())
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Elapsed returns the virtual time elapsed since Epoch.
func (v *Virtual) Elapsed() time.Duration { return time.Duration(v.now.Load()) }

// Sleep blocks the calling goroutine for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s := getSleeper(v, &v.sleepers)
	// Gate further advances, once woken, until the sleeper has acted on
	// its wake-up.
	s.gate = v
	s.alarm.Reset(d)
	<-s.ch
	s.gate = nil
	v.sleepers.Put(s)
}

// AfterFunc schedules fn to run once, d of virtual time from now. fn runs
// on the advancing goroutine with no clock lock held, so it may freely call
// back into the clock; it must not block indefinitely, or it stalls every
// other timer. The handle is an Alarm allocated around fn: one
// allocation, and the Timer handed back.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	a := new(Alarm)
	a.Init(v, HandlerFunc(fn))
	a.Reset(d)
	return a
}

// NoteWake registers an out-of-band wake-up: the virtual network calls it
// when a scheduled delivery unblocks a waiting reader, so the driver holds
// further advances until that reader consumed the data (WakeDone) or acted
// on the clock.
func (v *Virtual) NoteWake() {
	v.wakes.Add(1)
	v.gen.Add(1) // restart the grace window too
}

// WakeDone retires one NoteWake gate.
func (v *Virtual) WakeDone() { v.touch() }

// touch records external activity: it restarts the driver's grace window
// and retires one pending wake gate (the woken goroutine's first action
// proves it has resumed).
func (v *Virtual) touch() {
	v.gen.Add(1)
	for {
		w := v.wakes.Load()
		if w <= 0 || v.wakes.CompareAndSwap(w, w-1) {
			return
		}
	}
}

// Advance moves virtual time forward by d, firing every event scheduled in
// the window, in time order, on the calling goroutine. It is the manual
// driving mode for single-goroutine tests; do not mix it with AutoRun.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.eng.Now() + d
	v.fireThroughLocked(target, false)
	v.eng.RunUntil(target)
	v.now.Store(int64(target))
	v.mu.Unlock()
}

// Pending returns the number of events in the clock's heap: every live arm
// (alarm, timer or sleeper), and every superseded or stopped one that has
// not yet popped as a no-op.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.eng.Pending()
}

// fireThroughLocked fires every pending instant up to and including end,
// one instant at a time: all of the earliest instant's events are popped
// under this one hold of v.mu — FIFO in scheduling order, each live alarm
// queued into v.due — and the batch's handlers then run with the lock
// released. An event a handler schedules for the same instant fires in the
// next batch, after those already queued; an alarm stopped or re-armed
// while its batch runs is skipped (it loses the CAS on queued). Callers
// hold v.mu; it is held again on return.
//
// With yield set a woken goroutine gets to act at the instant it was woken
// at. Without it the goroutine races the window's later instants: it reads
// a later time than its wake-up, and what it schedules from there lands
// late by the difference. Outside scale mode the call returns after the
// first instant whose handlers woke a goroutine — a sleeper, or a reader a
// delivery unblocked — and leaves the rest of the window to an advance the
// driver holds until that goroutine has acted. Scale mode drains its window
// in one call and only pauses after an instant that woke a sleeper, for at
// most sleeperTurns scheduler turns: handing every delivery back to the
// driver costs a population-scale run more than twice its wall time.
func (v *Virtual) fireThroughLocked(end time.Duration, yield bool) {
	for {
		at, ok := v.eng.NextAt()
		if !ok || at > end {
			return
		}
		v.now.Store(int64(at))
		for next := at; ok && next == at; next, ok = v.eng.NextAt() {
			v.eng.Step()
		}
		// The batch's slice belongs to this call while the lock is
		// released and goes back, emptied, as the next batch's backing.
		due := v.due
		v.due = nil
		v.mu.Unlock()
		for i, a := range due {
			if a.queued.CompareAndSwap(true, false) {
				a.h.Fire()
			}
			due[i] = nil
		}
		v.mu.Lock()
		if v.due == nil {
			v.due = due[:0]
		}
		switch {
		case !yield:
		case !v.scale:
			if v.wakes.Load() > 0 {
				return
			}
		case v.slept.Swap(false):
			v.mu.Unlock()
			for i := 0; i < sleeperTurns && v.wakes.Load() > 0; i++ {
				runtime.Gosched()
			}
			v.mu.Lock()
		}
	}
}

// sleeperTurns bounds a scale-mode window's wait for a sleeper it woke: the
// sleeper's first clock operation usually retires its wake within a turn or
// two, and one that does something else first must not stall the window.
const sleeperTurns = 64

// advanceBatchLocked jumps to the event at next and fires everything in its
// coalescing window, up to the first instant that wakes a goroutine (in
// scale mode, the whole window). In scale mode the window is pinned: an
// advance landing inside the previous window keeps its end, so the window
// cannot slide forever on a dense chain. Callers hold v.mu.
func (v *Virtual) advanceBatchLocked(next time.Duration) {
	if !v.scale || next >= v.batchEnd {
		v.batchEnd = next + v.coalesce
	}
	v.fireThroughLocked(v.batchEnd, true)
}

// AutoRun starts the background driver and returns its stop function. The
// driver advances to the next scheduled event whenever the clock has seen
// no activity for the grace window and no freshly-woken goroutine is still
// pending; each advance fires the events within the coalescing window of
// the earliest one, stopping early (outside scale mode) at an instant that
// wakes a goroutine. Stop the driver only after the goroutines using the
// clock have finished (stopping it strands any goroutine still sleeping).
func (v *Virtual) AutoRun() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go v.drive(done)
	return func() { once.Do(func() { close(done) }) }
}

func (v *Virtual) drive(done chan struct{}) {
	v.mu.Lock()
	scale := v.scale
	v.mu.Unlock()
	// The quiet watch reads only atomics; v.mu is taken to look at the
	// heap once the clock has been still long enough to advance.
	lastGen, lastChange := v.gen.Load(), time.Now()
	for {
		select {
		case <-done:
			return
		default:
		}
		if scale {
			// A timed sleep costs several times its nominal duration in
			// scheduler latency, and at population scale every causal hop
			// waits on this loop — so burn one core yielding instead.
			runtime.Gosched()
		} else {
			time.Sleep(v.poll)
		}
		if gen := v.gen.Load(); gen != lastGen {
			lastGen, lastChange = gen, time.Now()
			continue
		}
		quiet := time.Since(lastChange)
		if v.wakes.Load() > 0 {
			if quiet <= v.stall {
				continue
			}
			// A woken goroutine never acted (it exited, or blocked on
			// something outside the clock's view). Do not hang forever.
			v.wakes.Store(0)
		}
		v.mu.Lock()
		next, ok := v.eng.NextAt()
		if !ok {
			v.mu.Unlock()
			continue
		}
		need := v.grace
		if scale {
			// The spinning driver observes activity at sub-microsecond
			// granularity, so a long wall grace buys no extra certainty:
			// a window boundary needs a short quiet, an intra-window hop
			// (wake gate already proved the woken goroutines acted) only
			// a token beat.
			need = 50 * time.Microsecond
			if next < v.batchEnd {
				need = 5 * time.Microsecond
			}
		}
		if quiet < need || v.gen.Load() != lastGen {
			v.mu.Unlock()
			continue
		}
		v.advanceBatchLocked(next)
		lastGen, lastChange = v.gen.Load(), time.Now()
		v.mu.Unlock()
	}
}
