// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock plus a priority queue of scheduled callbacks. Events at
// equal times fire in scheduling order (FIFO), which — together with a
// seeded random source — makes every simulation run exactly reproducible.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Engine is a discrete-event scheduler. The zero value is ready to use,
// starting at time 0. Engine is not safe for concurrent use: the whole
// simulation runs on one goroutine, which is what makes it deterministic.
type Engine struct {
	now    time.Duration
	queue  []event // arity-ary min-heap on (at, seq)
	seq    uint64
	firing uint64 // seq of the event being (or last) fired
	ran    uint64
}

// Handler is a scheduled event. A pointer type implementing it is stored in
// the queue as is, so a caller that already owns per-event state (a timer
// handle, say) schedules it without a closure on top.
type Handler interface {
	Fire()
}

type funcHandler func()

func (f funcHandler) Fire() { f() }

// Now returns the current virtual time (elapsed since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// Grow reserves room for n more pending events, so a simulation that knows
// how many it keeps in flight sizes the queue once and never copies it.
func (e *Engine) Grow(n int) { e.queue = slices.Grow(e.queue, n) }

// LastSeq returns the scheduling sequence number of the most recently
// scheduled event. Sequence numbers start at 1 and are never reused.
func (e *Engine) LastSeq() uint64 { return e.seq }

// FiringSeq returns the sequence number of the event being fired: read
// inside Handler.Fire it is that firing's own, which lets a handler that is
// scheduled again before its earlier entry pops (the engine has no removal)
// tell its live entry from a superseded one.
func (e *Engine) FiringSeq() uint64 { return e.firing }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute virtual time t.
func (e *Engine) At(t time.Duration, fn func()) error {
	if fn == nil {
		return errors.New("sim: nil event callback")
	}
	return e.Schedule(t, funcHandler(fn))
}

// Schedule is At for a Handler.
func (e *Engine) Schedule(t time.Duration, h Handler) error {
	if t < e.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPast, t, e.now)
	}
	if h == nil {
		return errors.New("sim: nil event handler")
	}
	e.push(t, h)
	return nil
}

// After schedules fn to run delay after the current time. Negative delays
// are rejected.
func (e *Engine) After(delay time.Duration, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("%w: delay %v", ErrPast, delay)
	}
	return e.At(e.now+delay, fn)
}

// NextAt returns the time of the earliest scheduled event, or false when
// the queue is empty.
func (e *Engine) NextAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step fires the next event, advancing the clock to its time. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.firing = ev.seq
	e.ran++
	ev.h.Fire()
	return true
}

// RunUntil fires events in time order until the queue is empty or the next
// event lies strictly beyond horizon. The clock finishes at the time of the
// last fired event (or at horizon if nothing remained to fire at it); events
// beyond the horizon stay queued.
func (e *Engine) RunUntil(horizon time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// event is held by value in the heap: scheduling one allocates nothing, and
// sifting moves 32-byte structs inside one slice instead of chasing
// pointers.
type event struct {
	at  time.Duration
	seq uint64 // scheduling order: FIFO among equal times
	h   Handler
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// arity is the heap's fan-out. Four children halve the depth of a binary
// heap; a pop compares them within two cache lines.
const arity = 4

func (e *Engine) push(t time.Duration, h Handler) {
	e.seq++
	ev := event{at: t, seq: e.seq, h: h}
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes the earliest event. The vacated tail slot is zeroed so the
// queue's backing array does not keep a fired handler reachable.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&last) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = last
	return top
}

// NewRNG returns the deterministic random source used across the simulator.
// Splitting a run's randomness into purpose-specific streams (arrivals,
// classes, admission tests) derives child seeds from one master seed so
// parameter sweeps perturb as little as possible.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// ChildSeed derives a stable child seed from a master seed and a stream
// label, so independent random streams can be created deterministically.
func ChildSeed(master int64, label string) int64 {
	// FNV-1a over the label, mixed with the master seed.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	h ^= uint64(master)
	h *= prime64
	return int64(h)
}
