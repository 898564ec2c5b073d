package protocol

import (
	"math/rand"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/sim"
)

// TestSupplierOnCallerStorage runs 200 suppliers whose admission states
// live in one caller-owned slab, the way the simulator lays them out,
// through seeded random sequences under both policies. Each sequence mixes
// the Supplier's locked calls (probes, session start and end, idle timeouts
// fired directly and through the engine-backed clock) with probes and
// reminders served straight on the slab slot. After every step the
// Supplier's Busy and LowestFavored agree with the slot and the census
// equals a walk over the suppliers; an EndSession that follows a reminder
// kept on the slot tightens the anchor to the best such reminder.
func TestSupplierOnCallerStorage(t *testing.T) {
	const n, k = 200, bandwidth.Class(4)
	for _, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
		t.Run(policy.String(), func(t *testing.T) {
			var eng sim.Engine
			clk := clock.ForEngine(&eng)
			rng := rand.New(rand.NewSource(int64(policy) + 11))
			class := func() bandwidth.Class { return 1 + bandwidth.Class(rng.Intn(int(k))) }
			adm := make([]dac.Supplier, n)
			sups := make([]Supplier, n)
			var census Census
			for i := range sups {
				if err := sups[i].Init(&adm[i], class(), k, policy, clk, time.Minute); err != nil {
					t.Fatal(err)
				}
				sups[i].SetCensus(&census)
			}
			// reminded is, per supplier, the best class whose reminder the
			// slot kept during the current session; 0 means none.
			reminded := make([]bandwidth.Class, n)
			tightened := 0

			for step := 0; step < 10_000; step++ {
				i := rng.Intn(n)
				s, slot := &sups[i], &adm[i]
				var op string
				switch rng.Intn(8) {
				case 0:
					op = "probe"
					s.HandleProbe(class(), rng.Float64())
				case 1, 2:
					op = "slot-probe"
					slot.Probe(class(), rng.Float64())
				case 3:
					op = "slot-reminder"
					if c := class(); slot.LeaveReminder(c) && (reminded[i] == 0 || c < reminded[i]) {
						reminded[i] = c
					}
				case 4:
					op = "start"
					if s.StartSession() == nil {
						reminded[i] = 0
					}
				case 5:
					op = "end"
					if s.EndSession() == nil && reminded[i] != 0 {
						if s.LowestFavored() != reminded[i] {
							t.Fatalf("step %d: supplier %d ended a session with a reminder from %v on its slot, anchor is %v",
								step, i, reminded[i], s.LowestFavored())
						}
						tightened++
						reminded[i] = 0
					}
				case 6:
					op = "idle-timeout"
					s.onIdleTimeout()
				default:
					op = "clock"
					eng.Step()
				}

				if s.Busy() != slot.Busy() || s.LowestFavored() != slot.LowestFavored() {
					t.Fatalf("step %d (%s): supplier %d reads busy=%v anchor=%v, its slot busy=%v anchor=%v",
						step, op, i, s.Busy(), s.LowestFavored(), slot.Busy(), slot.LowestFavored())
				}
				var count, sum [k + 1]int64
				for j := range sups {
					c := sups[j].Class()
					count[c]++
					sum[c] += int64(sups[j].LowestFavored())
				}
				for c := bandwidth.Class(1); c <= k; c++ {
					if gotN, gotSum := census.Class(c); gotN != count[c] || gotSum != sum[c] {
						t.Fatalf("step %d (%s): census has %d %v suppliers with anchors summing to %d, walk finds %d and %d",
							step, op, gotN, c, gotSum, count[c], sum[c])
					}
				}
			}
			if policy == dac.DAC && tightened == 0 {
				t.Error("no session ended with a reminder on its slot: the sequence never tested the tighten")
			}
		})
	}
}
