package dac

import (
	"fmt"
	"time"
)

// BackoffConfig holds the retry parameters of Section 4.2: after its i-th
// rejection a requesting peer waits Base · Factor^(i-1) before retrying.
type BackoffConfig struct {
	// Base is T_bkf, the backoff after the first rejection.
	Base time.Duration
	// Factor is E_bkf, the exponential factor (1 gives constant backoff).
	Factor int
	// Cap, when positive, bounds the wait: the schedule grows
	// exponentially until it reaches Cap and stays there. The paper leaves
	// the schedule unbounded; at population scale an unbounded doubling
	// sends late stragglers into sleeps far past the crowd's absorption,
	// so scale scenarios cap it. Zero keeps the legacy overflow guard
	// (one week) as the only bound.
	Cap time.Duration
	// Jitter, in [0, 1), scales each wait a live requester sleeps by a
	// uniform factor in [1-Jitter, 1+Jitter), drawn from a stream seeded
	// by the node. Zero keeps the paper's exact schedule. A same-instant
	// flash crowd needs it: a deterministic schedule keeps rejection
	// cohorts in lockstep, so the same peers re-collide at every wake.
	// After and TotalWait ignore it; the simulator refuses it.
	Jitter float64
}

// Validate returns an error if the configuration is unusable.
func (c BackoffConfig) Validate() error {
	if c.Base <= 0 {
		return fmt.Errorf("dac: backoff base %v, want > 0", c.Base)
	}
	if c.Factor < 1 {
		return fmt.Errorf("dac: backoff factor %d, want >= 1", c.Factor)
	}
	if c.Cap < 0 {
		return fmt.Errorf("dac: backoff cap %v, want >= 0", c.Cap)
	}
	if c.Cap > 0 && c.Cap < c.Base {
		return fmt.Errorf("dac: backoff cap %v below base %v", c.Cap, c.Base)
	}
	if !(c.Jitter >= 0 && c.Jitter < 1) { // NaN fails both
		return fmt.Errorf("dac: backoff jitter %v outside [0, 1)", c.Jitter)
	}
	return nil
}

// maxBackoff caps the wait so that pathological rejection counts cannot
// overflow time.Duration; a week is far beyond any simulated horizon.
const maxBackoff = 7 * 24 * time.Hour

// After returns the backoff duration following the rejections-th rejection
// (rejections >= 1): min(Base·Factor^(rejections-1), cap), where cap is Cap
// when set and one week at most. The product is compared against the cap
// before it is formed, so no factor overflows it.
func (c BackoffConfig) After(rejections int) (time.Duration, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if rejections < 1 {
		return 0, fmt.Errorf("dac: rejection count %d, want >= 1", rejections)
	}
	cap := maxBackoff
	if c.Cap > 0 && c.Cap < cap {
		cap = c.Cap
	}
	d := min(c.Base, cap)
	if c.Factor == 1 {
		return d, nil
	}
	f := time.Duration(c.Factor)
	for i := 1; i < rejections && d < cap; i++ {
		if d > cap/f {
			return cap, nil
		}
		d *= f
	}
	return d, nil
}

// TotalWait returns the cumulative waiting time after the given number of
// rejections: sum_{i=1..rejections} Base·Factor^(i-1). This is the paper's
// mapping from Table 1 (average rejections) to average waiting time.
func (c BackoffConfig) TotalWait(rejections int) (time.Duration, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if rejections < 0 {
		return 0, fmt.Errorf("dac: rejection count %d, want >= 0", rejections)
	}
	var total time.Duration
	for i := 1; i <= rejections; i++ {
		d, err := c.After(i)
		if err != nil {
			return 0, err
		}
		total += d
		if total > maxBackoff {
			return maxBackoff, nil
		}
	}
	return total, nil
}
