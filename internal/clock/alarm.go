package clock

import (
	"sync/atomic"
	"time"

	"p2pstream/internal/sim"
)

// Handler is what an Alarm runs when it goes off: anything with a Fire
// method, the engine's own event interface.
type Handler = sim.Handler

// HandlerFunc adapts a plain func to Handler (a func value is
// pointer-shaped, so the conversion allocates nothing).
type HandlerFunc func()

// Fire implements Handler.
func (f HandlerFunc) Fire() { f() }

// Alarm is a caller-owned, re-armable one-shot: the owner embeds the
// storage, Inits it once and Resets it for every firing, so a recurring
// timeout (an inbox's flush, a supplier's idle elevation) costs no
// allocation per arm. It is the one timer mechanism of the Virtual clock —
// AfterFunc there is an Alarm allocated around a func.
//
//   - On a Virtual clock the alarm is itself the event in the clock's heap;
//     an advance pops it under the clock's lock, queues it into the
//     instant's batch and runs its handler with the lock released.
//   - On the System clock it re-arms one time.Timer; the handler runs on
//     its own goroutine.
//
// The heap has no event removal, so every Reset is exactly one push and a
// superseded or stopped arm pops later as a no-op: event counts are those
// of Stop + AfterFunc. The owner serialises Reset and Stop (its users
// all hold their own lock); the handler runs with no clock lock held and
// may take that lock and Reset its own alarm. An Alarm must not be copied
// after Init.
type Alarm struct {
	h Handler

	// v is the Virtual clock Init bound the alarm to; nil on the System
	// clock.
	v   *Virtual
	sys *time.Timer // System: created by the first Reset, re-armed after

	// seq is the engine sequence number of the live arm, 0 when there is
	// none; a pop with any other number is a superseded arm. Guarded by
	// v.mu on a Virtual clock.
	seq uint64
	// queued marks a Virtual alarm popped into the current instant's batch
	// whose handler has not started: the batch runs with no lock held, so
	// the runner, Stop and Reset settle who owns the firing by CAS.
	queued atomic.Bool
}

// Init binds the alarm to a clock and the handler its firings run. Call it
// once, before the first Reset.
func (a *Alarm) Init(clk Clock, h Handler) {
	a.h = h
	switch c := clk.(type) {
	case *Virtual:
		a.v = c
	case systemClock:
	default:
		panic("clock: Alarm on an unknown Clock implementation")
	}
}

// Reset arms the alarm to fire once, d from now (at once when d <= 0),
// superseding any arm still pending.
func (a *Alarm) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	switch {
	case a.v != nil:
		a.v.mu.Lock()
		a.v.touch()
		if a.queued.Load() {
			a.queued.Store(false) // supersedes a firing still waiting in the running batch
		}
		a.push(d)
		a.v.mu.Unlock()
	case a.sys != nil:
		a.sys.Reset(d)
	default:
		a.sys = time.AfterFunc(d, a.h.Fire)
	}
}

func (a *Alarm) push(d time.Duration) {
	eng := &a.v.eng
	if err := eng.Schedule(eng.Now()+d, (*alarmEvent)(a)); err != nil {
		panic("clock: scheduling alarm: " + err.Error())
	}
	a.seq = eng.LastSeq()
}

// Stop cancels the pending arm. It reports whether the call prevented a
// firing: after true the handler does not run for that arm — also when the
// alarm was due at the very instant being fired; false means it already
// fired (or is firing), was stopped, or was never armed.
func (a *Alarm) Stop() bool {
	if a.v == nil {
		return a.sys != nil && a.sys.Stop()
	}
	a.v.mu.Lock()
	defer a.v.mu.Unlock()
	if a.seq != 0 {
		a.seq = 0
		return true
	}
	// Popped into the batch now running, handler not yet started: claim
	// the firing from the runner.
	return a.queued.CompareAndSwap(true, false)
}

// alarmEvent is the Alarm as the engine's event, kept off Alarm's method
// set: owners embed an Alarm beside a Fire of their own.
type alarmEvent Alarm

// Fire implements sim.Handler: the clock's heap popped one of the alarm's
// entries, under v.mu.
func (e *alarmEvent) Fire() {
	a := (*Alarm)(e)
	if a.seq != a.v.eng.FiringSeq() {
		return // a superseded or stopped arm
	}
	a.seq = 0
	a.queued.Store(true)
	a.v.due = append(a.v.due, a)
}
