// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock plus a priority queue of scheduled callbacks. Events at
// equal times fire in scheduling order (FIFO), which — together with a
// seeded random source — makes every simulation run exactly reproducible.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// Engine is a discrete-event scheduler. The zero value is ready to use,
// starting at time 0. Engine is not safe for concurrent use: the whole
// simulation runs on one goroutine, which is what makes it deterministic.
//
// The queue is a radix heap keyed on the event time (Ahuja, Mehlhorn, Orlin
// and Tarjan, "Faster algorithms for the shortest path problem", JACM 1990).
// It applies because pops never go back in time: Schedule rejects the past,
// so every pending time is at or after the base, the time of the last refill,
// and only Step refills, right before it fires at the new base. An event at
// time t sits in bucket bits.Len64(t XOR base); bucket 0 holds the events at
// the base itself. When bucket 0 runs dry, the lowest non-empty bucket is
// moved down with its earliest time as the new base: that time's events land
// in bucket 0, every other event in a lower bucket than the one it left.
// Equal times always share a bucket, a push appends to a bucket's tail and a
// refill walks a bucket head to tail, so events at equal times fire in
// scheduling order with no sequence number in the key.
//
// The buckets are FIFO lists threaded through one slab of events, and a
// fired event's slot is reused before the slab grows: the queue holds at
// most its peak pending count plus one slots, however its events spread
// across the buckets.
type Engine struct {
	now  time.Duration
	base time.Duration // radix base: never past now

	slab    []event // slot 0 is the nil link
	free    int32   // head of the vacated slots' list
	buckets [numBuckets]bucket
	full    uint64 // bit b-1 set while bucket b > 0 is non-empty
	pending int

	seq    uint64
	firing uint64 // seq of the event being (or last) fired
	ran    uint64
}

// numBuckets covers every bit length of a time XOR the base, 0 to 64.
const numBuckets = 65

// bucket is one FIFO list of slab slots.
type bucket struct {
	head, tail int32         // 0 when empty; tail is stale then
	least      time.Duration // earliest time queued, while non-empty
}

// event is held by value in the slab: scheduling one allocates nothing once
// the slab has reached the queue's peak.
type event struct {
	at   time.Duration
	next int32  // the next slot of the same bucket, or of the free list
	seq  uint64 // scheduling order, reported by FiringSeq
	h    Handler
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
func (e *Engine) Pending() int { return e.pending }

// Grow reserves room for n more pending events, so a simulation that knows
// how many it keeps in flight sizes the queue once and never copies it.
func (e *Engine) Grow(n int) {
	if len(e.slab) == 0 {
		n++ // the nil slot
	}
	e.slab = slices.Grow(e.slab, n)
}

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
// the queue is empty. It reads the earliest bucket's least time and moves
// nothing, so the base stays where it is: a caller that finds the next event
// beyond its horizon may still schedule before it.
func (e *Engine) NextAt() (time.Duration, bool) {
	switch {
	case e.pending == 0:
		return 0, false
	case e.buckets[0].head != 0:
		return e.base, true
	default:
		return e.buckets[bits.TrailingZeros64(e.full)+1].least, true
	}
}

// Step fires the next event, advancing the clock to its time. It returns
// false when no events remain. The fired slot is cleared, so the slab does
// not keep the handler reachable.
func (e *Engine) Step() bool {
	if e.pending == 0 {
		return false
	}
	if e.buckets[0].head == 0 {
		e.refill()
	}
	i := e.buckets[0].head
	ev := &e.slab[i]
	e.buckets[0].head = ev.next
	h := ev.h
	e.now, e.firing = ev.at, ev.seq
	ev.h, ev.next = nil, e.free
	e.free = i
	e.pending--
	e.ran++
	h.Fire()
	return true
}

// RunUntil fires events in time order until the queue is empty or the next
// event lies strictly beyond horizon. The clock finishes at the time of the
// last fired event (or at horizon if nothing remained to fire at it); events
// beyond the horizon stay queued.
func (e *Engine) RunUntil(horizon time.Duration) {
	for {
		if at, ok := e.NextAt(); !ok || at > horizon {
			break
		}
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

func (e *Engine) push(t time.Duration, h Handler) {
	e.seq++
	i := e.free
	if i != 0 {
		e.free = e.slab[i].next
	} else {
		if len(e.slab) == 0 {
			e.slab = append(e.slab, event{})
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, event{})
	}
	e.slab[i] = event{at: t, seq: e.seq, h: h}
	e.link(i)
	e.pending++
}

// link appends slot i, whose next is 0, to the tail of its time's bucket.
func (e *Engine) link(i int32) {
	t := e.slab[i].at
	b := bits.Len64(uint64(t) ^ uint64(e.base))
	bk := &e.buckets[b]
	if bk.head == 0 {
		bk.head, bk.least = i, t
		if b > 0 {
			e.full |= 1 << (b - 1)
		}
	} else {
		e.slab[bk.tail].next = i
		bk.least = min(bk.least, t)
	}
	bk.tail = i
}

// refill empties the lowest non-empty bucket into the ones below it,
// rebasing on its least time: one walk, head to tail, so each bucket keeps
// its scheduling order. Called only by Step with bucket 0 empty, and only
// to fire at the new base at once.
func (e *Engine) refill() {
	b := bits.TrailingZeros64(e.full) + 1
	e.full &^= 1 << (b - 1)
	bk := &e.buckets[b]
	i := bk.head
	bk.head = 0
	e.base = bk.least
	if i == bk.tail {
		// A lone event is the new base's: no walk, no bucket arithmetic.
		e.buckets[0] = bucket{head: i, tail: i, least: e.base}
		return
	}
	for i != 0 {
		next := e.slab[i].next
		e.slab[i].next = 0
		e.link(i)
		i = next
	}
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
