package dac

import (
	"fmt"

	"p2pstream/internal/bandwidth"
)

// Policy selects between the paper's differentiated protocol and the
// non-differentiated baseline it is evaluated against.
type Policy int

const (
	// DAC is the differentiated admission control protocol DAC_p2p.
	DAC Policy = iota
	// NDAC is the baseline NDAC_p2p: every supplier's probability vector is
	// pinned at all-ones and never changes; reminders have no effect.
	NDAC
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case DAC:
		return "DAC_p2p"
	case NDAC:
		return "NDAC_p2p"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Decision is a supplier's response to a streaming-service probe.
type Decision int

const (
	// Granted: the supplier is idle and passed the probabilistic test; it
	// is willing to participate if the requester selects it.
	Granted Decision = iota
	// DeniedBusy: the supplier is serving another session.
	DeniedBusy
	// DeniedProbability: the supplier is idle but the probabilistic
	// admission test failed for the requester's class.
	DeniedProbability
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Granted:
		return "granted"
	case DeniedBusy:
		return "denied-busy"
	case DeniedProbability:
		return "denied-probability"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Supplier is the supplying-peer side of the admission protocol: the
// probability vector plus the per-session state that drives its relax and
// tighten transitions. It is a passive state machine — the caller (simulator
// or live node) supplies randomness and invokes the timeout hook, which
// keeps the logic deterministic and testable.
//
// The vector is held as one integer. A vector that starts as "1 up to the
// own class, then halving" (or all ones) and changes only by elevate
// (double, cap at 1) and tighten (re-anchor) is always 1 up to some class
// anchor and 1/2^(j-anchor) below it: doubling that shape moves the anchor
// one class down, re-anchoring sets it. Every probability is a power of
// two, so the vector rendered from the anchor is exact.
//
// Supplier is not safe for concurrent use; callers serialize access (the
// simulator is single-threaded, the live node reaches it only through
// protocol.Supplier's mutex).
// The zero value is not usable: build one with NewSupplier, or Init storage
// the caller already owns.
type Supplier struct {
	// Classes are at most bandwidth.MaxClass = 20: a byte each keeps the
	// whole machine inside one word, so a slab of them is 8 B a peer.
	class  int8
	k      int8 // number of classes
	anchor int8 // lowest favored class: Pb[j] = 1 for j <= anchor, 1/2^(j-anchor) below
	// bestReminder is the highest (numerically smallest) class that left a
	// reminder during the current busy session; 0 means none.
	bestReminder int8
	// pinned marks the NDAC baseline: anchor stays at k whatever happens.
	pinned bool
	busy   bool
	// sawFavoredRequest records whether any favored-class request arrived
	// while busy in the current session (Section 4.1(c), first bullet).
	sawFavoredRequest bool
}

// NewSupplier returns the admission state of a class-own supplying peer in a
// system with numClasses classes under the given policy.
func NewSupplier(own bandwidth.Class, numClasses bandwidth.Class, policy Policy) (*Supplier, error) {
	s := new(Supplier)
	if err := s.Init(own, numClasses, policy); err != nil {
		return nil, err
	}
	return s, nil
}

// Init is NewSupplier into storage the caller owns (a field of its own
// record, say). On error *s is unchanged.
func (s *Supplier) Init(own bandwidth.Class, numClasses bandwidth.Class, policy Policy) error {
	if policy != DAC && policy != NDAC {
		return fmt.Errorf("dac: unknown policy %d", int(policy))
	}
	if err := checkClasses(own, numClasses); err != nil {
		return err
	}
	*s = Supplier{class: int8(own), k: int8(numClasses), anchor: int8(own)}
	if policy == NDAC {
		s.anchor, s.pinned = s.k, true
	}
	return nil
}

// Class returns the supplier's bandwidth class.
func (s *Supplier) Class() bandwidth.Class { return bandwidth.Class(s.class) }

// Policy returns the admission policy the supplier runs.
func (s *Supplier) Policy() Policy {
	if s.pinned {
		return NDAC
	}
	return DAC
}

// Offer returns the supplier's out-bound bandwidth offer.
func (s *Supplier) Offer() bandwidth.Fraction { return s.Class().Offer() }

// Busy reports whether the supplier is currently serving a session.
func (s *Supplier) Busy() bool { return s.busy }

// Vector renders the current probability vector (for metrics and tests).
func (s *Supplier) Vector() Vector { return render(s.LowestFavored(), bandwidth.Class(s.k)) }

// LowestFavored returns the lowest class the supplier currently favors
// (the paper's Figure 7 metric).
func (s *Supplier) LowestFavored() bandwidth.Class { return bandwidth.Class(s.anchor) }

// Favors reports whether the supplier currently favors class j.
func (s *Supplier) Favors(j bandwidth.Class) bool { return j >= 1 && j <= s.LowestFavored() }

// AllOpen reports whether every class is currently favored (no further
// elevation can change the vector, so idle timers may stop).
func (s *Supplier) AllOpen() bool { return s.anchor == s.k }

// IdleTimerRuns reports whether the T_out idle elevation timer of Section
// 4.1(b) runs: the supplier is idle, runs DAC and still has a class to open.
// A driver arms the timer when a supplier is promoted, after a session ends
// and after a timeout that elevated, each time only if this holds, and stops
// it when a session starts.
func (s *Supplier) IdleTimerRuns() bool { return !s.busy && !s.pinned && !s.AllOpen() }

// Probe serves a streaming-service probe from a class-reqClass requesting
// peer: the decision, and whether the supplier currently favors that class
// (a busy supplier's denial carries it, so the requester knows where a
// reminder would count). u must be a uniform random value in [0, 1) drawn
// by the caller. A grant is a permission, not a commitment: the requester
// triggers the suppliers it selects via StartSession. A probe never moves
// the anchor.
func (s *Supplier) Probe(reqClass bandwidth.Class, u float64) (dec Decision, favors bool) {
	favors = s.Favors(reqClass)
	switch {
	case reqClass < 1 || reqClass > bandwidth.Class(s.k):
		return DeniedProbability, false
	case s.busy:
		if favors {
			s.sawFavoredRequest = true
		}
		return DeniedBusy, favors
	case u < prob(reqClass, s.LowestFavored()):
		return Granted, favors
	}
	return DeniedProbability, favors
}

// HandleProbe is Probe's decision alone.
func (s *Supplier) HandleProbe(reqClass bandwidth.Class, u float64) Decision {
	dec, _ := s.Probe(reqClass, u)
	return dec
}

// LeaveReminder records a reminder from a rejected class-reqClass requester
// (Section 4.2). Reminders are only accepted while busy and only from
// classes the supplier currently favors — the requester checks the same
// condition, but the supplier enforces it too. It reports whether the
// reminder was kept.
func (s *Supplier) LeaveReminder(reqClass bandwidth.Class) bool {
	if !s.busy || !s.Favors(reqClass) {
		return false
	}
	if s.pinned {
		// The baseline keeps its vector pinned; reminders are ignored.
		return false
	}
	if s.bestReminder == 0 || int8(reqClass) < s.bestReminder {
		s.bestReminder = int8(reqClass)
	}
	return true
}

// StartSession marks the supplier busy. It fails if the supplier is already
// serving (the paper's model: at most one session per supplying peer).
func (s *Supplier) StartSession() error {
	if s.busy {
		return fmt.Errorf("dac: %v supplier already busy", s.Class())
	}
	s.busy = true
	s.sawFavoredRequest = false
	s.bestReminder = 0
	return nil
}

// EndSession marks the supplier idle and applies the post-session vector
// update of Section 4.1(c):
//   - reminders were left → tighten, anchored at the highest reminder class;
//   - no favored-class request arrived during the whole session → elevate;
//   - favored requests arrived but none left a reminder → unchanged.
func (s *Supplier) EndSession() error {
	if !s.busy {
		return fmt.Errorf("dac: %v supplier not busy", s.Class())
	}
	s.busy = false
	if s.pinned {
		return nil
	}
	switch {
	case s.bestReminder != 0:
		// Only favored classes leave reminders, so this never loosens.
		s.anchor = s.bestReminder
	case !s.sawFavoredRequest:
		s.elevate()
	}
	s.sawFavoredRequest = false
	s.bestReminder = 0
	return nil
}

// OnIdleTimeout applies the elevate-after-timeout rule of Section 4.1(b).
// It returns true if the vector changed; once it returns false the vector
// is all-open and the caller may stop scheduling timeouts until the next
// session ends. Timeouts while busy are ignored (the timer is defined over
// idle periods only).
func (s *Supplier) OnIdleTimeout() bool {
	if s.busy || s.pinned {
		return false
	}
	return s.elevate()
}

// elevate doubles every probability below 1, capping at 1: the favored
// prefix grows by one class. It reports whether anything changed.
func (s *Supplier) elevate() bool {
	if s.anchor == s.k {
		return false
	}
	s.anchor++
	return true
}
