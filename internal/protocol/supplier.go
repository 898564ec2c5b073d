package protocol

import (
	"errors"
	"sync"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
)

// Supplier is the live node's driver of the DAC_p2p supplier lifecycle: the
// §4.1 admission state machine (internal/dac) behind a mutex, with the idle
// elevation timer of Section 4.1(b) on a clock.Alarm, the node's shared
// session budget and its protocol counters. The lifecycle rules themselves
// — session start, the post-session vector update, elevation and when the
// idle timer runs — are dac.Supplier methods, so this driver and the
// simulator's own apply them identically.
//
// Supplier is safe for concurrent use (the live node serves probes,
// reminders and sessions from independent connection goroutines).
type Supplier struct {
	mu     sync.Mutex
	adm    dac.Supplier
	closed bool
	probes int
	// slots, when non-nil, is the node's shared outbound session budget:
	// every per-object Supplier of one node consults the same pool, so
	// slot accounting is per node while the admission vector, idle
	// elevation and post-session rules stay per stream.
	slots *Slots

	sessions  int
	reminders int
	tout      time.Duration
	idle      clock.Alarm // the elevation timeout, re-armed in place: no allocation per arm
}

// NewSupplier returns a supplying peer of the given class in a system with
// numClasses classes, with its idle elevation timer armed on clk.
func NewSupplier(class, numClasses bandwidth.Class, policy dac.Policy, clk clock.Clock, tout time.Duration) (*Supplier, error) {
	s := &Supplier{tout: tout}
	if err := s.adm.Init(class, numClasses, policy); err != nil {
		return nil, err
	}
	s.idle.Init(clk, (*idleTimeout)(s))
	s.mu.Lock()
	s.armLocked()
	s.mu.Unlock()
	return s, nil
}

// SetSlots attaches the node's shared session budget. Call before the
// supplier serves traffic; nil (the default) leaves each stream with the
// paper's implicit one-session budget enforced by the dac machine alone.
func (s *Supplier) SetSlots(slots *Slots) {
	s.mu.Lock()
	s.slots = slots
	s.mu.Unlock()
}

// Class returns the supplier's bandwidth class.
func (s *Supplier) Class() bandwidth.Class {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adm.Class()
}

// Busy reports whether a session is in progress.
func (s *Supplier) Busy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adm.Busy()
}

// LowestFavored returns the lowest class currently favored (Figure 7).
func (s *Supplier) LowestFavored() bandwidth.Class {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adm.LowestFavored()
}

// Stats returns protocol counters: probes served, sessions completed,
// reminders kept.
func (s *Supplier) Stats() (probes, sessions, reminders int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes, s.sessions, s.reminders
}

// HandleProbe serves one admission probe: it reports the decision together
// with whether the supplier currently favors the requester's class (busy
// deny replies carry it so the requester can target reminders). u must be
// uniform in [0, 1), drawn by the caller — randomness stays outside the
// state machine.
func (s *Supplier) HandleProbe(reqClass bandwidth.Class, u float64) (dec dac.Decision, favors bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	if !s.adm.Busy() && s.slots != nil && !s.slots.Available() {
		// Another object's session holds the node's last outbound slot:
		// from this stream's perspective the peer is busy. The stream's
		// own vector state is untouched — no session on this stream will
		// end to apply a post-session update, and idle elevation keeps
		// running per stream.
		return dac.DeniedBusy, s.adm.Favors(reqClass)
	}
	return s.adm.Probe(reqClass, u)
}

// LeaveReminder records a rejected requester's reminder; it reports
// whether the reminder was kept.
func (s *Supplier) LeaveReminder(reqClass bandwidth.Class) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.adm.LeaveReminder(reqClass)
	if kept {
		s.reminders++
	}
	return kept
}

// ErrSlotsExhausted is StartSession's refusal while every slot of the
// node's shared session budget is held.
var ErrSlotsExhausted = errors.New("protocol: node session budget exhausted")

// StartSession claims the supplier for one streaming session — one slot
// of the node's shared budget plus this stream's dac state — and
// suspends the idle elevation timer.
func (s *Supplier) StartSession() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slots != nil && !s.slots.TryAcquire() {
		return ErrSlotsExhausted
	}
	if err := s.adm.StartSession(); err != nil {
		if s.slots != nil {
			s.slots.Release()
		}
		return err
	}
	s.idle.Stop()
	return nil
}

// EndSession releases the supplier: the post-session vector update of
// Section 4.1(c) is applied and the idle elevation timer re-armed.
func (s *Supplier) EndSession() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.adm.EndSession(); err != nil {
		return err
	}
	if s.slots != nil {
		s.slots.Release()
	}
	s.sessions++
	s.armLocked()
	return nil
}

// Close stops the idle timer; further timeouts are ignored.
func (s *Supplier) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.idle.Stop()
}

// armLocked schedules the next elevate-after-timeout step (Section 4.1(b))
// when the dac rule says the idle timer runs.
func (s *Supplier) armLocked() {
	if !s.closed && s.adm.IdleTimerRuns() {
		s.idle.Reset(s.tout)
	}
}

// idleTimeout is the Supplier as its idle alarm's handler, kept off the
// exported method set.
type idleTimeout Supplier

// Fire implements clock.Handler.
func (t *idleTimeout) Fire() { (*Supplier)(t).onIdleTimeout() }

func (s *Supplier) onIdleTimeout() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.adm.Busy() {
		return
	}
	if s.adm.OnIdleTimeout() {
		s.armLocked()
	}
}
