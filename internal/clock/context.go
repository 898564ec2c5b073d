package clock

import (
	"context"
	"sync"
	"time"
)

// ContextWithTimeout derives a context that is cancelled with
// context.DeadlineExceeded after d of clock time — the clock-aware
// equivalent of context.WithTimeout. On the system clock the two are
// interchangeable; on a virtual clock the deadline fires deterministically
// with virtual time, which is what lets cancellation tests prove deadline
// behavior within one clock step instead of sleeping wall time.
//
// The returned CancelFunc must be called (typically deferred) to release
// the timer and the parent watcher.
func ContextWithTimeout(parent context.Context, clk Clock, d time.Duration) (context.Context, context.CancelFunc) {
	return ContextWithDeadline(parent, clk, clk.Now().Add(d))
}

// ContextWithDeadline derives a context cancelled with
// context.DeadlineExceeded at instant deadline on clk. See
// ContextWithTimeout.
func ContextWithDeadline(parent context.Context, clk Clock, deadline time.Time) (context.Context, context.CancelFunc) {
	c := &deadlineCtx{parent: parent, deadline: deadline, done: make(chan struct{})}
	d := deadline.Sub(clk.Now())
	if d <= 0 {
		c.cancel(context.DeadlineExceeded)
		return c, func() { c.cancel(context.Canceled) }
	}
	c.timer = clk.AfterFunc(d, func() { c.cancel(context.DeadlineExceeded) })
	if pd := parent.Done(); pd != nil {
		go func() {
			select {
			case <-pd:
				c.cancel(parent.Err())
			case <-c.done:
			}
		}()
	}
	return c, func() { c.cancel(context.Canceled) }
}

// deadlineCtx is a context whose deadline runs on a Clock.
type deadlineCtx struct {
	parent   context.Context
	deadline time.Time
	timer    Timer

	mu   sync.Mutex
	err  error
	done chan struct{}
}

func (c *deadlineCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	t := c.timer
	c.timer = nil
	close(c.done)
	c.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// Deadline returns the clock instant of the deadline. Note that under a
// virtual clock this is a virtual instant; net.Conn deadlines derived from
// it are meaningful only on the system clock (virtual connections ignore
// deadlines anyway).
func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *deadlineCtx) Value(key any) any { return c.parent.Value(key) }

// SleepCtx blocks for d of clock time or until ctx is cancelled, whichever
// comes first, returning ctx.Err() in the latter case — the cancellable
// spelling of Clock.Sleep used by retry/backoff loops.
func SleepCtx(ctx context.Context, clk Clock, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if ctx.Done() == nil {
		clk.Sleep(d)
		return nil
	}
	var pool *sync.Pool
	switch c := clk.(type) {
	case *Virtual:
		pool = &c.sleepers
	case systemClock:
		pool = &wallSleepers
	default:
		panic("clock: SleepCtx on a clock that cannot block a goroutine")
	}
	s := getSleeper(clk, pool)
	s.alarm.Reset(d)
	var err error
	select {
	case <-s.ch:
	case <-ctx.Done():
		err = ctx.Err()
		if !s.alarm.Stop() {
			<-s.ch // the firing is already under way: take its token, so the sleeper goes back clean
		}
	}
	pool.Put(s)
	return err
}

// sleeper parks one goroutine on a clock: an Alarm whose firing hands over
// a token. Sleepers are pooled, so a steady-state sleep allocates nothing. A
// Virtual clock keeps a pool of its own — a stopped arm leaves a no-op entry
// in that clock's heap, which must never meet a sleeper re-bound to another
// clock; the wall clock's sleepers share wallSleepers.
type sleeper struct {
	alarm Alarm
	ch    chan struct{} // capacity 1: Fire never blocks the goroutine it runs on
	gate  *Virtual      // set while parked in Virtual.Sleep: the wake-up gates advances
}

var wallSleepers sync.Pool

func getSleeper(clk Clock, pool *sync.Pool) *sleeper {
	if s, ok := pool.Get().(*sleeper); ok {
		return s
	}
	s := &sleeper{ch: make(chan struct{}, 1)}
	s.alarm.Init(clk, s)
	return s
}

// Fire implements Handler.
func (s *sleeper) Fire() {
	if s.gate != nil {
		s.gate.wakes.Add(1)
		s.gate.slept.Store(true)
	}
	s.ch <- struct{}{}
}
