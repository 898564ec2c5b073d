// Package bwe estimates the bandwidth available to one streaming session
// from its own acknowledgment stream — a send-side, delay-based estimator
// in the GCC tradition, reduced to the signals this overlay has: per-chunk
// RTT (whose excess over the minimum observed is standing queue at the
// bottleneck) and delivered-byte counts (the achieved goodput).
//
// The estimator is a small AIMD state machine. While queuing delay stays
// under the threshold it additively increases its rate; when delay signals
// overuse it multiplicatively decreases toward the measured delivery rate
// and holds briefly so one decrease can drain the queue before the next
// verdict. The estimate is clamped to [Min, Max]; Max is
// the paper's committed R0/2^c offer — a supplier never estimates itself
// above what admission granted.
//
// The estimator is passive about time: callers pass the current instant,
// so it runs identically under the virtual clock and the wall clock. Not
// safe for concurrent use; a pacing.Flow owns one behind its mutex.
package bwe

import "time"

// Config tunes an Estimator. Zero values take the documented defaults.
type Config struct {
	// Initial is the starting rate estimate in bytes/second (required).
	Initial int64
	// Min floors the estimate (default Initial/8, at least 512 B/s).
	Min int64
	// Max caps the estimate; 0 means uncapped. Sessions set this to the
	// committed class offer.
	Max int64
	// Increase is the additive ramp in bytes/second per second of
	// congestion-free feedback (default max(Initial/2, 4096)).
	Increase int64
	// HoldTime freezes the rate after a decrease so the queue can drain
	// before the next verdict (default 100ms, what a feedback round costs
	// on a slow link).
	HoldTime time.Duration
}

const (
	// beta is the multiplicative-decrease factor.
	beta = 0.85
	// delayThreshold is the queuing delay — RTT excess over the observed
	// minimum — that signals overuse.
	delayThreshold = 4 * time.Millisecond
)

// Estimator is the per-session send-side bandwidth estimator.
type Estimator struct {
	cfg  Config
	rate int64

	minRTT   time.Duration
	lastFeed time.Time // last feedback instant (additive-increase base)
	lastCut  time.Time // last multiplicative decrease
	everFed  bool
	everCut  bool

	// delivery-rate measurement: bytes acked over a short window.
	winStart time.Time
	winBytes int64
	delivery int64 // latest windowed goodput sample, B/s
}

// New returns an estimator starting at cfg.Initial.
func New(cfg Config) *Estimator {
	if cfg.Min <= 0 {
		cfg.Min = cfg.Initial / 8
		if cfg.Min < 512 {
			cfg.Min = 512
		}
	}
	if cfg.Increase <= 0 {
		cfg.Increase = cfg.Initial / 2
		if cfg.Increase < 4096 {
			cfg.Increase = 4096
		}
	}
	if cfg.HoldTime <= 0 {
		cfg.HoldTime = 100 * time.Millisecond
	}
	e := &Estimator{cfg: cfg, rate: cfg.Initial}
	e.clamp()
	return e
}

// Rate returns the current estimate in bytes/second.
func (e *Estimator) Rate() int64 { return e.rate }

// deliveryWindow is the goodput measurement window.
const deliveryWindow = 200 * time.Millisecond

// OnAck feeds one acknowledgment: n bytes confirmed delivered, with the
// chunk's measured round-trip time, at instant now.
func (e *Estimator) OnAck(now time.Time, n int, rtt time.Duration) {
	if rtt > 0 && (e.minRTT == 0 || rtt < e.minRTT) {
		e.minRTT = rtt
	}
	// Goodput window.
	if e.winStart.IsZero() {
		e.winStart = now
	}
	e.winBytes += int64(n)
	if w := now.Sub(e.winStart); w >= deliveryWindow {
		e.delivery = int64(float64(e.winBytes) / w.Seconds())
		e.winStart = now
		e.winBytes = 0
	}

	queuing := rtt - e.minRTT
	if queuing > delayThreshold {
		e.overuse(now)
	} else {
		e.underuse(now)
	}
	e.lastFeed = now
	e.everFed = true
}

func (e *Estimator) overuse(now time.Time) {
	if e.everCut && now.Sub(e.lastCut) < e.cfg.HoldTime {
		return // one cut per hold period: let the queue drain first
	}
	target := int64(beta * float64(e.rate))
	if e.delivery > 0 {
		// Cutting toward measured goodput converges in one step when the
		// rate overshot badly, instead of bleeding down 15% at a time.
		if t := int64(beta * float64(e.delivery)); t < target {
			target = t
		}
	}
	e.rate = target
	e.clamp()
	e.lastCut = now
	e.everCut = true
}

func (e *Estimator) underuse(now time.Time) {
	if e.everCut && now.Sub(e.lastCut) < e.cfg.HoldTime {
		return
	}
	if e.everFed {
		if dt := now.Sub(e.lastFeed); dt > 0 {
			e.rate += int64(float64(e.cfg.Increase) * dt.Seconds())
			e.clamp()
		}
	}
}

func (e *Estimator) clamp() {
	if e.cfg.Max > 0 && e.rate > e.cfg.Max {
		e.rate = e.cfg.Max
	}
	if e.rate < e.cfg.Min {
		e.rate = e.cfg.Min
	}
}
