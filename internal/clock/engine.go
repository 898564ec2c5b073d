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

// AfterFunc allocates an Alarm around fn: the handle is itself the event
// the engine queues. It cancels by sequence number — the engine has no
// event removal, so a stopped timer simply pops into a no-op (the
// simulator's old idleEpoch idiom, centralized).
func (c engineClock) AfterFunc(d time.Duration, fn func()) Timer { return newTimer(c, d, fn) }
