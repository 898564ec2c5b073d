package system

import (
	"testing"
	"unsafe"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// TestPeerRecordSize pins the per-peer record at 48 bytes. A full-scale run
// touches a random peer at every request, session start, session end and
// idle timeout; at this size its 50,100 records (2.4 MB) fit inside L2
// together with the admission slab (TestSupplierFitsOneWord in dac) and the
// event queue's slab.
func TestPeerRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(peer{}); got > 48 {
		t.Errorf("peer is %d bytes, want at most 48", got)
	}
}

// stepRun builds a scaled-down run under policy and steps its engine one
// event at a time up to the horizon, calling check once before the first
// event and again after every event. It returns the stepped simulation.
func stepRun(t *testing.T, policy dac.Policy, check func(s *simulation)) *simulation {
	t.Helper()
	cfg := smallConfig()
	cfg.Policy = policy
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	for {
		if at, ok := s.eng.NextAt(); !ok || at > cfg.Horizon {
			return s
		}
		s.eng.Step()
		check(s)
	}
}

// TestCensusMatchesPromotedPeers steps a scaled-down run one event at a time
// under both policies. After every event, Figure 7's census equals a walk
// over every promoted peer's admission slot, class by class.
func TestCensusMatchesPromotedPeers(t *testing.T) {
	for _, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
		t.Run(policy.String(), func(t *testing.T) {
			moved := false // some supplier's anchor left its own class
			stepRun(t, policy, func(s *simulation) {
				t.Helper()
				k := s.cfg.NumClasses()
				count := make([]int64, k+1)
				sum := make([]int64, k+1)
				for i := range s.adm {
					a := &s.adm[i]
					if a.Class() == 0 {
						continue // not yet promoted
					}
					count[a.Class()]++
					sum[a.Class()] += int64(a.LowestFavored())
					moved = moved || a.LowestFavored() != a.Class()
				}
				for c := bandwidth.Class(1); c <= k; c++ {
					if s.suppliers[c] != count[c] || s.anchorSum[c] != sum[c] {
						t.Fatalf("at %v: census has %d %v suppliers with anchors summing to %d, walk finds %d and %d",
							s.eng.Now(), s.suppliers[c], c, s.anchorSum[c], count[c], sum[c])
					}
				}
			})
			if policy == dac.DAC && !moved {
				t.Error("no anchor ever moved: the run never exercised the census")
			}
		})
	}
}

// TestIdleArmsFollowSlab steps the same run and checks the simulator's
// driver against the admission slab it drives: after every event, a peer has
// a live idle arm exactly when dac's rule says its idle timer runs on its
// slot, and a peer not yet promoted has a zero slot and no arm. The stepped
// run ends where Run ends.
func TestIdleArmsFollowSlab(t *testing.T) {
	for _, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
		t.Run(policy.String(), func(t *testing.T) {
			armedOnce := false
			s := stepRun(t, policy, func(s *simulation) {
				t.Helper()
				for i := range s.adm {
					a, p := &s.adm[i], &s.peers[i]
					armed := p.idleSeq != 0
					if a.Class() == 0 {
						if armed {
							t.Fatalf("at %v: peer %d has an idle arm before its promotion", s.eng.Now(), i)
						}
						continue
					}
					armedOnce = armedOnce || armed
					if armed != a.IdleTimerRuns() {
						t.Fatalf("at %v: peer %d armed=%v, but dac says its idle timer runs=%v (busy=%v anchor=%v)",
							s.eng.Now(), i, armed, a.IdleTimerRuns(), a.Busy(), a.LowestFavored())
					}
				}
			})
			if policy == dac.DAC && !armedOnce {
				t.Error("no idle timer ever ran: the run never exercised the arms")
			}
			res, err := Run(s.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.eng.Processed() != res.Events {
				t.Errorf("stepped run processed %d events, Run %d", s.eng.Processed(), res.Events)
			}
		})
	}
}
