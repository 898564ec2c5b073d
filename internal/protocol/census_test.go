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

// TestCensusMatchesWalk steps 200 suppliers through seeded random promote,
// probe, reminder, session start and end, and idle-timeout operations (fired
// directly and through the engine-backed clock) under both policies, and
// after every step compares the census with a walk over every promoted
// supplier, class by class. Detaching every supplier then empties it.
func TestCensusMatchesWalk(t *testing.T) {
	const n, k = 200, bandwidth.Class(4)
	for _, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
		t.Run(policy.String(), func(t *testing.T) {
			var eng sim.Engine
			clk := clock.ForEngine(&eng)
			rng := rand.New(rand.NewSource(int64(policy) + 1))
			sups := make([]Supplier, n)
			adm := make([]dac.Supplier, n)
			promoted := make([]bool, n)
			var census Census
			class := func() bandwidth.Class { return 1 + bandwidth.Class(rng.Intn(int(k))) }

			check := func(step int, op string) {
				t.Helper()
				var count, sum [k + 1]int64
				for i := range sups {
					if promoted[i] {
						c := sups[i].Class()
						count[c]++
						sum[c] += int64(sups[i].LowestFavored())
					}
				}
				for c := bandwidth.Class(1); c <= k; c++ {
					if gotN, gotSum := census.Class(c); gotN != count[c] || gotSum != sum[c] {
						t.Fatalf("step %d (%s): census has %d %v suppliers with anchors summing to %d, walk finds %d and %d",
							step, op, gotN, c, gotSum, count[c], sum[c])
					}
				}
			}

			for step := 0; step < 20_000; step++ {
				i := rng.Intn(n)
				s := &sups[i]
				var op string
				switch r := rng.Intn(7); {
				case !promoted[i]:
					op = "promote"
					if err := s.Init(&adm[i], class(), k, policy, clk, time.Minute); err != nil {
						t.Fatal(err)
					}
					s.SetCensus(&census)
					promoted[i] = true
				case r == 0:
					op = "probe"
					s.HandleProbe(class(), rng.Float64())
				case r == 1:
					op = "reminder"
					s.LeaveReminder(class())
				case r == 2:
					op = "start"
					_ = s.StartSession() // fails when busy: the census must not notice
				case r == 3:
					op = "end"
					_ = s.EndSession() // fails when idle: likewise
				case r == 4:
					op = "idle-timeout"
					s.onIdleTimeout()
				default:
					op = "clock"
					eng.Step() // the next armed idle alarm, or a stopped one
				}
				check(step, op)
			}
			for i := range sups {
				sups[i].SetCensus(nil)
			}
			for c := bandwidth.Class(1); c <= k; c++ {
				if gotN, gotSum := census.Class(c); gotN != 0 || gotSum != 0 {
					t.Errorf("with every supplier detached the census still has %d %v suppliers (anchor sum %d)", gotN, c, gotSum)
				}
			}
		})
	}
}
