// Package clock abstracts time for the protocol stack: the same session
// code runs against the wall clock in a live deployment and against a
// virtual clock (backed by the discrete-event engine in internal/sim) in
// tests and scenario runs, where hours of protocol time elapse in
// milliseconds of wall time.
//
// Two implementations are provided:
//
//   - System: the real wall clock (time.Now, time.Sleep, time.AfterFunc);
//   - Virtual: a concurrency-safe virtual clock for driving real,
//     multi-goroutine code (the live node over a virtual network) under
//     virtual time, with an auto-advance driver, or by hand with Advance,
//     which fires the handlers inline on the caller.
package clock

import "time"

// Epoch is the instant at which every virtual clock starts. Using a fixed,
// non-zero epoch keeps time.Time arithmetic well-behaved and makes virtual
// timestamps recognizable in logs.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing (false if it already fired or was stopped).
	Stop() bool
}

// Clock is the time source and scheduler used by the protocol layer. All
// waiting in the session state machines goes through a Clock, which is what
// makes the live node schedulable under virtual time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d (non-positive returns
	// immediately).
	Sleep(d time.Duration)
	// AfterFunc schedules fn to run once, d from now. Implementations run
	// fn outside any internal lock; fn may call back into the Clock.
	AfterFunc(d time.Duration, fn func()) Timer
}

// System returns the real wall clock.
func System() Clock { return systemClock{} }

// Or returns c, or the system clock when c is nil — the idiom for optional
// Clock fields in configuration structs.
func Or(c Clock) Clock {
	if c == nil {
		return System()
	}
	return c
}

type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (systemClock) Sleep(d time.Duration)           { time.Sleep(d) }

func (systemClock) AfterFunc(d time.Duration, fn func()) Timer {
	return systemTimer{time.AfterFunc(d, fn)}
}

type systemTimer struct{ t *time.Timer }

func (t systemTimer) Stop() bool { return t.t.Stop() }
