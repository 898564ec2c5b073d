package clock

import (
	"time"

	"p2pstream/internal/sim"
)

// ForEngine adapts a caller-driven sim.Engine to the Clock interface for
// single-threaded simulators: AfterFunc schedules directly on the engine
// and callbacks fire synchronously, inline, in event order while the caller
// steps the engine — exactly the determinism the whole-system simulation
// relies on.
//
// The adapter adds no locking; like the engine itself it must only be used
// from the goroutine running the simulation. Sleep is not meaningful in an
// inline event loop and panics.
func ForEngine(e *sim.Engine) Clock { return engineClock{e} }

type engineClock struct{ eng *sim.Engine }

func (c engineClock) Now() time.Time                  { return Epoch.Add(c.eng.Now()) }
func (c engineClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c engineClock) Sleep(d time.Duration) {
	panic("clock: Sleep on a single-threaded engine clock")
}

func (c engineClock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	t := &engineTimer{fn: fn}
	if err := c.eng.Schedule(c.eng.Now()+d, t); err != nil {
		panic("clock: scheduling on engine: " + err.Error())
	}
	return t
}

// engineTimer is both the caller's handle and the scheduled event, so a
// timer costs one allocation. It cancels by flag: the engine has no event
// removal, so a stopped timer simply fires into a no-op (the simulator's old
// idleEpoch idiom, centralized).
type engineTimer struct {
	fn             func()
	stopped, fired bool
}

// Fire implements sim.Handler.
func (t *engineTimer) Fire() {
	if t.stopped {
		return
	}
	t.fired = true
	t.fn()
}

func (t *engineTimer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}
