package dac

import (
	"fmt"
	"time"

	"p2pstream/internal/bandwidth"
)

// ProbeOutcome records what a requesting peer learned from probing one
// candidate supplying peer.
type ProbeOutcome struct {
	// Index identifies the candidate in the caller's candidate list.
	Index int
	// Class is the candidate's bandwidth class (known from lookup).
	Class bandwidth.Class
	// Decision is the candidate's response.
	Decision Decision
	// FavorsUs reports whether the candidate currently favors the
	// requester's class; busy candidates report it so the requester can
	// choose reminder targets.
	FavorsUs bool
}

// ProbeOrder appends to dst the candidate indices sorted high class first
// (descending offer), ties broken by position — the order in which a
// requesting peer contacts its candidates (Section 4.2). Any class value is
// ordered, valid or not. A caller that keeps dst across attempts allocates
// nothing.
func ProbeOrder(dst []int, classes []bandwidth.Class) []int {
	base := len(dst)
	for i, c := range classes {
		// Insertion sort on the class, at most M candidates: an index moves
		// only past strictly lower classes, so equal classes keep their
		// positions.
		j := len(dst)
		dst = append(dst, i)
		for ; j > base && classes[dst[j-1]] > c; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	return dst
}

// SelectSuppliers chooses, from probe outcomes, the suppliers to trigger:
// scanning grants from high class to low class, it accumulates offers,
// skipping any grant that would overshoot R0, and succeeds when the
// aggregate is exactly R0 (the precondition of OTS_p2p). Because offers are
// binary fractions of R0, this greedy scan finds an exact subset whenever
// one exists. It returns the chosen outcome indices (positions in the
// outcomes slice) and whether the requester is admitted.
func SelectSuppliers(outcomes []ProbeOutcome) (chosen []int, admitted bool) {
	chosen, sum := appendUpToR0(nil, outcomes, Granted, false)
	if sum != bandwidth.R0 {
		return nil, false
	}
	return chosen, true
}

// ReminderTargets appends to dst the busy candidates on which a rejected
// requester leaves reminders (Section 4.2): scanning busy candidates that
// currently favor the requester's class from high class to low class,
// accumulate offers up to exactly R0 with the same overshoot-skipping rule.
// If R0 is unreachable the accumulated prefix is still reminded (a
// substitution: the paper requires the subset's aggregate to equal R0 but
// does not say what to do when the busy favoring candidates cannot reach
// it).
func ReminderTargets(dst []int, outcomes []ProbeOutcome) []int {
	dst, _ = appendUpToR0(dst, outcomes, DeniedBusy, true)
	return dst
}

// appendUpToR0 appends to dst the outcome positions with the given decision
// (only those favoring the requester, if favoring is set) that a high-class-
// first scan accumulates without overshooting R0, stopping at exactly R0,
// and returns the aggregate reached. dst's tail doubles as the scan's
// scratch, so nothing else is allocated.
func appendUpToR0(dst []int, outcomes []ProbeOutcome, want Decision, favoring bool) ([]int, bandwidth.Fraction) {
	base := len(dst)
	for i, o := range outcomes {
		if o.Decision != want || (favoring && !o.FavorsUs) {
			continue
		}
		// ProbeOrder's insertion sort, keyed on the outcome's class.
		j := len(dst)
		dst = append(dst, i)
		for ; j > base && outcomes[dst[j-1]].Class > o.Class; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = i
	}
	order := dst[base:]
	var sum bandwidth.Fraction
	kept := 0
	for _, i := range order {
		offer := outcomes[i].Class.Offer()
		if sum+offer > bandwidth.R0 {
			continue
		}
		sum += offer
		order[kept] = i
		kept++
		if sum == bandwidth.R0 {
			break
		}
	}
	return dst[:base+kept], sum
}

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
