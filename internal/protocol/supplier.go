package protocol

import (
	"errors"
	"sync"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
)

// Supplier is the supplying-peer side of the session layer: the DAC_p2p
// admission state machine (internal/dac) combined with the clock-driven
// idle elevation timer of Section 4.1(b) and the session lifecycle. The
// simulator runs it on an engine-backed clock, the live node on the wall
// clock or a virtual one; the elevation and post-session vector rules live
// here exactly once.
//
// Supplier is safe for concurrent use (the live node serves probes,
// reminders and sessions from independent connection goroutines).
//
// The §4.1 admission state itself, the one-word dac.Supplier, lives in
// storage the caller hands to Init, and the Supplier keeps a pointer to it.
// NewSupplier puts it in the Supplier's own allocation. The simulator keeps
// every peer's in one dense slab instead, and being single-threaded it
// serves probes and reminders straight on its slot, with no lock; those
// never move the anchor, so the sessions, the idle alarm and the census
// stay here.
type Supplier struct {
	mu     sync.Mutex
	adm    *dac.Supplier
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
	// census, when non-nil, tallies this supplier's class and anchor. It is
	// touched only where the anchor moves.
	census *Census
}

// NewSupplier returns a supplying peer of the given class in a system with
// numClasses classes, with its idle elevation timer armed on clk. Its
// admission state shares the Supplier's allocation.
func NewSupplier(class, numClasses bandwidth.Class, policy dac.Policy, clk clock.Clock, tout time.Duration) (*Supplier, error) {
	b := new(struct {
		sup Supplier
		adm dac.Supplier
	})
	if err := b.sup.Init(&b.adm, class, numClasses, policy, clk, tout); err != nil {
		return nil, err
	}
	return &b.sup, nil
}

// Init is NewSupplier into zeroed storage the caller owns, with the
// admission state in adm: a simulator with one record per peer promotes the
// peer without allocating. Init sets *adm up; from then on adm belongs to
// the Supplier, and a caller that reads or writes it directly must
// serialize those accesses with the Supplier's own. A Supplier holds a
// mutex and is its own alarm's handler, so it must not be copied or moved
// afterwards, nor may adm.
func (s *Supplier) Init(adm *dac.Supplier, class, numClasses bandwidth.Class, policy dac.Policy, clk clock.Clock, tout time.Duration) error {
	if err := adm.Init(class, numClasses, policy); err != nil {
		return err
	}
	s.adm = adm
	s.tout = tout
	s.idle.Init(clk, (*idleTimeout)(s))
	s.mu.Lock()
	s.armLocked()
	s.mu.Unlock()
	return nil
}

// SetSlots attaches the node's shared session budget. Call before the
// supplier serves traffic; nil (the default) leaves each stream with the
// paper's implicit one-session budget enforced by the dac machine alone.
func (s *Supplier) SetSlots(slots *Slots) {
	s.mu.Lock()
	s.slots = slots
	s.mu.Unlock()
}

// SetCensus counts the supplier in census (nil detaches it), which from
// then on follows every move of its lowest favored class. The simulator
// attaches one census to all its suppliers for Figure 7; the live node
// attaches none.
func (s *Supplier) SetCensus(census *Census) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.censusLocked(-1)
	s.census = census
	s.censusLocked(1)
}

// censusLocked adds the supplier to its census (sign 1) or takes it out
// (sign -1).
func (s *Supplier) censusLocked(sign int64) {
	if s.census != nil {
		s.census.add(s.adm.Class(), sign, sign*int64(s.adm.LowestFavored()))
	}
}

// recountLocked tells the census the anchor moved from before.
func (s *Supplier) recountLocked(before bandwidth.Class) {
	if s.census == nil {
		return
	}
	if d := s.adm.LowestFavored() - before; d != 0 {
		s.census.add(s.adm.Class(), 0, int64(d))
	}
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
	before := s.adm.LowestFavored()
	if err := s.adm.EndSession(); err != nil {
		return err
	}
	s.recountLocked(before)
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

// armLocked schedules the next elevate-after-timeout step (Section 4.1(b)).
// NDAC suppliers never elevate, and an all-open vector cannot change, so
// neither schedules a timer.
func (s *Supplier) armLocked() {
	if s.closed || s.adm.Busy() || s.adm.AllOpen() {
		return
	}
	if !s.elevates() {
		return
	}
	s.idle.Reset(s.tout)
}

// elevates reports whether idle timeouts can still change the vector.
func (s *Supplier) elevates() bool {
	// OnIdleTimeout on an NDAC supplier is a no-op; probing that via a
	// dry-run would mutate DAC state, so consult the policy directly.
	return s.adm.Policy() == dac.DAC
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
	before := s.adm.LowestFavored()
	if s.adm.OnIdleTimeout() {
		s.recountLocked(before)
		s.armLocked()
	}
}
