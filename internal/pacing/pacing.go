// Package pacing smooths a sender's chunk emission to a target rate. A
// supplier that blasts a whole segment schedule as fast as the wire
// accepts it builds standing queues at the bottleneck and starves
// competing flows; an interval-budget pacer releases bytes no faster than
// the rate the bandwidth estimator granted, with a small burst window so
// one segment-sized write never waits on a byte-by-byte drip.
//
// A Flow is the whole send side of one ack-clocked flow: its pacer, its
// bandwidth estimator and the marks that turn cumulative acknowledgments
// into round-trip samples. The supplier's feedback sessions and the
// scenario harness's cross-traffic both send through one.
//
// Everything runs on a clock.Clock, so paced senders are exactly as
// schedulable under virtual time as unpaced ones.
package pacing

import (
	"context"
	"sync"
	"time"

	"p2pstream/internal/bwe"
	"p2pstream/internal/clock"
)

// DefaultBurst is the budget ceiling when none is configured: the largest
// chunk a pacer will release without waiting, and therefore the window over
// which short-term rate may exceed the long-term target.
const DefaultBurst = 16 << 10

// Pacer is an interval-budget rate limiter: budget accrues with elapsed
// time at the configured rate (capped at the burst size), and each send
// spends its byte count, sleeping on the clock until the budget covers it.
// Not safe for concurrent use; each sending loop owns its own Pacer.
type Pacer struct {
	clk   clock.Clock
	rate  int64 // bytes per second
	burst int64 // budget cap, bytes

	budget int64
	last   time.Time
}

// New returns a pacer emitting at rate bytes/second with the given burst
// budget (DefaultBurst when burst <= 0). A rate <= 0 disables pacing:
// Pace returns immediately.
func New(clk clock.Clock, rate int64, burst int) *Pacer {
	b := int64(burst)
	if b <= 0 {
		b = DefaultBurst
	}
	p := &Pacer{clk: clock.Or(clk), burst: b}
	p.SetRate(rate)
	p.last = p.clk.Now()
	p.budget = b // a fresh pacer may burst immediately
	return p
}

// SetRate retargets the pacer. The accrued budget is kept, so a rate change
// mid-stream never forfeits (or double-grants) bytes already earned.
func (p *Pacer) SetRate(rate int64) {
	p.accrue()
	p.rate = rate
}

// accrue folds elapsed time into the byte budget.
func (p *Pacer) accrue() {
	now := p.clk.Now()
	if p.rate > 0 && now.After(p.last) {
		earned := int64(float64(now.Sub(p.last)) / float64(time.Second) * float64(p.rate))
		p.budget += earned
		if p.budget > p.burst {
			p.budget = p.burst
		}
	}
	p.last = now
}

// Pace blocks until the budget covers n bytes, then spends them. Sends
// larger than the burst window are allowed — the budget simply goes
// negative, pushing the debt onto subsequent sends — so a single oversized
// segment cannot deadlock the pacer. The wait aborts when ctx is done,
// returning its error without spending the budget, so a long-lived
// background sender never outlives its run; a context that is never done
// costs nothing over a plain sleep.
func (p *Pacer) Pace(ctx context.Context, n int) error {
	if p.rate <= 0 {
		return ctx.Err()
	}
	p.accrue()
	need := int64(n)
	if p.budget < min(need, p.burst) {
		short := min(need, p.burst) - p.budget
		wait := time.Duration(float64(short) / float64(p.rate) * float64(time.Second))
		if err := clock.SleepCtx(ctx, p.clk, wait); err != nil {
			return err
		}
		p.accrue()
	}
	p.budget -= need
	return nil
}

// Flow is the send side of one ack-clocked flow. The sending goroutine
// calls Rate and Pace; one feedback reader calls Acked with the receiver's
// cumulative byte count. Each paced send is marked with its cumulative end
// and its instant, and an ack closes the marks it covers in order — one
// estimator sample per mark, its bytes and its round trip.
type Flow struct {
	clk   clock.Clock
	pacer *Pacer // the sending goroutine's alone

	mu    sync.Mutex // guards what the feedback reader shares with the sender
	est   *bwe.Estimator
	marks []mark // sends not yet acknowledged, oldest first
	sent  int64  // bytes marked so far
	acked int64  // the end of the last closed mark
}

type mark struct {
	upTo int64
	at   time.Time
}

// NewFlow returns a flow whose estimator starts from est and whose pacer
// starts at est.Initial with the given burst budget.
func NewFlow(clk clock.Clock, est bwe.Config, burst int) *Flow {
	clk = clock.Or(clk)
	return &Flow{clk: clk, pacer: New(clk, est.Initial, burst), est: bwe.New(est)}
}

// Rate returns the flow's current bandwidth estimate in bytes/second.
func (f *Flow) Rate() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.est.Rate()
}

// Pace waits until the pacer, retargeted to rate, releases n bytes, then
// marks them as leaving now. A cancelled wait marks nothing.
func (f *Flow) Pace(ctx context.Context, rate int64, n int) error {
	f.pacer.SetRate(rate)
	if err := f.pacer.Pace(ctx, n); err != nil {
		return err
	}
	f.mu.Lock()
	f.sent += int64(n)
	f.marks = append(f.marks, mark{upTo: f.sent, at: f.clk.Now()})
	f.mu.Unlock()
	return nil
}

// Acked takes the receiver's cumulative count of bytes delivered and feeds
// the estimator one sample for every mark it closes.
func (f *Flow) Acked(total int64) {
	now := f.clk.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.marks) > 0 && f.marks[0].upTo <= total {
		m := f.marks[0]
		f.marks = f.marks[1:]
		f.est.OnAck(now, int(m.upTo-f.acked), now.Sub(m.at))
		f.acked = m.upTo
	}
}
