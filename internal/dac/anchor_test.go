package dac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2pstream/internal/bandwidth"
)

// The paper's Section 4.1 vector rules on an explicit []float64. A Supplier
// keeps one integer in place of the vector; these are the definition it is
// checked against, and nothing outside the tests mutates a Vector.

// Elevate relaxes the admission preference by doubling every probability,
// capped at 1.0 (Section 4.1(b): applied after an idle timeout, and after a
// session that saw no favored-class request). It reports whether anything
// changed.
func (v Vector) Elevate() bool {
	changed := false
	for i, p := range v {
		if p < 1.0 {
			p *= 2
			if p > 1.0 {
				p = 1.0
			}
			v[i] = p
			changed = true
		}
	}
	return changed
}

// Tighten re-anchors the vector at the given class (Section 4.1(c): anchor
// is the highest class among reminders left during the last busy session):
// Pb[j] = 1 for j <= anchor, Pb[j] = 1/2^(j-anchor) for j > anchor.
func (v Vector) Tighten(anchor bandwidth.Class) error {
	if anchor < 1 || int(anchor) > len(v) {
		return fmt.Errorf("dac: tighten anchor %d outside [1, %d]", anchor, len(v))
	}
	for j := bandwidth.Class(1); int(j) <= len(v); j++ {
		if j <= anchor {
			v[j-1] = 1.0
		} else {
			v[j-1] = 1.0 / float64(int64(1)<<uint(j-anchor))
		}
	}
	return nil
}

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector {
	return append(Vector(nil), v...)
}

// paperSupplier is the supplying-peer state machine of Section 4.1 written
// against the explicit vector.
type paperSupplier struct {
	policy       Policy
	vec          Vector
	busy         bool
	sawFavored   bool
	bestReminder bandwidth.Class
}

func newPaperSupplier(own, k bandwidth.Class, policy Policy) *paperSupplier {
	vec := make(Vector, k)
	for j := range vec {
		vec[j] = 1
		if c := bandwidth.Class(j + 1); policy == DAC && c > own {
			vec[j] = math.Ldexp(1, -int(c-own))
		}
	}
	return &paperSupplier{policy: policy, vec: vec}
}

func (s *paperSupplier) handleProbe(reqClass bandwidth.Class, u float64) Decision {
	if reqClass < 1 || int(reqClass) > len(s.vec) {
		return DeniedProbability
	}
	if s.busy {
		if s.vec.Favors(reqClass) {
			s.sawFavored = true
		}
		return DeniedBusy
	}
	if u < s.vec.Prob(reqClass) {
		return Granted
	}
	return DeniedProbability
}

func (s *paperSupplier) leaveReminder(reqClass bandwidth.Class) bool {
	if !s.busy || !s.vec.Favors(reqClass) || s.policy == NDAC {
		return false
	}
	if s.bestReminder == 0 || reqClass < s.bestReminder {
		s.bestReminder = reqClass
	}
	return true
}

func (s *paperSupplier) startSession() bool {
	if s.busy {
		return false
	}
	s.busy, s.sawFavored, s.bestReminder = true, false, 0
	return true
}

func (s *paperSupplier) endSession(t *testing.T) bool {
	if !s.busy {
		return false
	}
	s.busy = false
	if s.policy == NDAC {
		return true
	}
	switch {
	case s.bestReminder != 0:
		if err := s.vec.Tighten(s.bestReminder); err != nil {
			t.Fatal(err)
		}
	case !s.sawFavored:
		s.vec.Elevate()
	}
	return true
}

func (s *paperSupplier) onIdleTimeout() bool {
	if s.busy || s.policy == NDAC {
		return false
	}
	return s.vec.Elevate()
}

// TestAnchorAgainstPaperVector drives a Supplier and the paper's definition
// through the same seeded random probe / reminder / start / end / timeout
// sequences, for every own class and K the package admits and both policies,
// and demands the same answers after every step — exactly: every probability
// is a power of two.
func TestAnchorAgainstPaperVector(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for k := bandwidth.Class(1); k <= bandwidth.MaxClass; k++ {
		for own := bandwidth.Class(1); own <= k; own++ {
			for _, policy := range []Policy{DAC, NDAC} {
				s, err := NewSupplier(own, k, policy)
				if err != nil {
					t.Fatal(err)
				}
				ref := newPaperSupplier(own, k, policy)
				for op := 0; op < 150; op++ {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("own=%d K=%d %v op %d: %s", own, k, policy, op, fmt.Sprintf(format, args...))
					}
					req := bandwidth.Class(rng.Intn(int(k) + 2)) // 0 and K+1 are out of range
					switch rng.Intn(6) {
					case 0:
						if got, want := s.HandleProbe(req, 0), ref.handleProbe(req, 0); got != want {
							fail("probe(%d, 0) = %v, want %v", req, got, want)
						}
					case 1:
						// Both sides of the grant threshold.
						p := ref.vec.Prob(req)
						for _, u := range []float64{math.Nextafter(p, 0), p} {
							if got, want := s.HandleProbe(req, u), ref.handleProbe(req, u); got != want {
								fail("probe(%d, %g) = %v, want %v", req, u, got, want)
							}
						}
					case 2:
						if got, want := s.LeaveReminder(req), ref.leaveReminder(req); got != want {
							fail("reminder(%d) kept = %v, want %v", req, got, want)
						}
					case 3:
						if got, want := s.StartSession() == nil, ref.startSession(); got != want {
							fail("start ok = %v, want %v", got, want)
						}
					case 4:
						if got, want := s.EndSession() == nil, ref.endSession(t); got != want {
							fail("end ok = %v, want %v", got, want)
						}
					case 5:
						if got, want := s.OnIdleTimeout(), ref.onIdleTimeout(); got != want {
							fail("timeout changed = %v, want %v", got, want)
						}
					}
					if got := s.Vector(); !equalVec(got, ref.vec) {
						fail("vector %v, want %v", got, ref.vec)
					}
					if got, want := s.LowestFavored(), ref.vec.LowestFavored(); got != want {
						fail("lowest favored %d, want %d", got, want)
					}
					if got, want := s.AllOpen(), ref.vec.AllOpen(); got != want {
						fail("all-open %v, want %v", got, want)
					}
					if got, want := s.Busy(), ref.busy; got != want {
						fail("busy %v, want %v", got, want)
					}
					for j := bandwidth.Class(0); j <= k+1; j++ {
						if got, want := s.Favors(j), ref.vec.Favors(j); got != want {
							fail("favors(%d) = %v, want %v", j, got, want)
						}
					}
				}
			}
		}
	}
}
