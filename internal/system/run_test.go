package system

import (
	"testing"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// smallConfig is a scaled-down paper setup that runs in well under a second
// but keeps every mechanism active.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSeeds = 20
	cfg.NumRequesters = 2000
	cfg.ArrivalWindow = 24 * time.Hour
	cfg.Horizon = 48 * time.Hour
	return cfg
}

func runSmall(t *testing.T, mutate func(*Config)) *Result {
	t.Helper()
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad policy", func(c *Config) { c.Policy = dac.Policy(9) }},
		{"no seeds", func(c *Config) { c.NumSeeds = 0 }},
		{"negative requesters", func(c *Config) { c.NumRequesters = -1 }},
		{"bad distribution", func(c *Config) { c.ClassDist = bandwidth.Distribution{0.5} }},
		{"seed class out of range", func(c *Config) { c.SeedClass = 9 }},
		{"zero M", func(c *Config) { c.M = 0 }},
		{"zero timeout", func(c *Config) { c.TOut = 0 }},
		{"bad backoff", func(c *Config) { c.Backoff.Factor = 0 }},
		{"jittered backoff", func(c *Config) { c.Backoff.Jitter = 0.5 }},
		{"zero session", func(c *Config) { c.SessionDuration = 0 }},
		{"bad pattern", func(c *Config) { c.Pattern = arrival.Pattern(0) }},
		{"window beyond horizon", func(c *Config) { c.ArrivalWindow = c.Horizon + 1 }},
		{"zero sampling", func(c *Config) { c.SampleEvery = 0 }},
		{"zero favored sampling", func(c *Config) { c.FavoredSampleEvery = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate should fail")
			}
			if _, err := Run(cfg); err == nil {
				t.Error("Run should refuse invalid config")
			}
		})
	}
}

func TestRunBasicInvariants(t *testing.T) {
	res := runSmall(t, nil)

	var arrived, admitted int64
	for c := 0; c < 4; c++ {
		arrived += res.Arrived[c]
		admitted += res.Admitted[c]
		if res.Admitted[c] > res.Arrived[c] {
			t.Errorf("class %d: admitted %d > arrived %d", c+1, res.Admitted[c], res.Arrived[c])
		}
	}
	if arrived != 2000 {
		t.Errorf("arrived %d, want 2000 (every requester makes a first request within the window)", arrived)
	}
	if admitted == 0 {
		t.Fatal("nobody admitted")
	}
	// Capacity is monotone non-decreasing (suppliers never leave) and ends
	// at (seeds + admitted-and-finished peers)' aggregate.
	prev := -1.0
	for i := 0; i < res.Capacity.Len(); i++ {
		if res.Capacity.Missing(i) {
			t.Fatal("capacity sample missing")
		}
		if v := res.Capacity.Values[i]; v < prev {
			t.Fatalf("capacity decreased: %g after %g", v, prev)
		} else {
			prev = v
		}
	}
	first, _ := res.Capacity.At(0)
	if want := float64(20 / 2); first != want { // 20 class-1 seeds, R0/2 each
		t.Errorf("initial capacity %g, want %g", first, want)
	}
	last, _ := res.Capacity.Last()
	if last > float64(res.MaxCapacity) {
		t.Errorf("capacity %g exceeds max %d", last, res.MaxCapacity)
	}
	if res.Events == 0 || res.TotalRequests < 2000 || res.TotalProbes == 0 {
		t.Errorf("counters look wrong: %+v", res)
	}
	// Buffering delay is only defined where someone was admitted; final
	// values must lie in [2, M] slots.
	for c := 0; c < 4; c++ {
		if res.Admitted[c] == 0 {
			continue
		}
		if d := res.AvgDelaySlots[c]; d < 2 || d > float64(res.Config.M) {
			t.Errorf("class %d avg delay %g outside [2, M]", c+1, d)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runSmall(t, nil)
	b := runSmall(t, nil)
	if a.Events != b.Events || a.TotalRequests != b.TotalRequests || a.TotalProbes != b.TotalProbes {
		t.Fatalf("same seed diverged: %d/%d events, %d/%d requests",
			a.Events, b.Events, a.TotalRequests, b.TotalRequests)
	}
	for i := range a.Capacity.Values {
		if a.Capacity.Values[i] != b.Capacity.Values[i] {
			t.Fatal("capacity series diverged")
		}
	}
	for c := 0; c < 4; c++ {
		if a.AvgRejections[c] != b.AvgRejections[c] {
			t.Fatal("rejections diverged")
		}
	}
	c := runSmall(t, func(cfg *Config) { cfg.Seed = 99 })
	if c.TotalRequests == a.TotalRequests && c.TotalProbes == a.TotalProbes {
		t.Error("different seeds produced identical counters (suspicious)")
	}
}

// TestDACDifferentiation asserts the class orderings of Figures 5-6 and
// Table 1: under DAC_p2p, higher classes see higher admission rates, fewer
// rejections and lower buffering delay.
func TestDACDifferentiation(t *testing.T) {
	res := runSmall(t, nil)
	for c := 0; c < 3; c++ {
		hi, ok1 := res.AdmissionRate[c].Last()
		lo, ok2 := res.AdmissionRate[c+1].Last()
		if !ok1 || !ok2 {
			t.Fatalf("admission series empty for class %d/%d", c+1, c+2)
		}
		if hi < lo-1e-9 {
			t.Errorf("final admission rate class %d (%.1f%%) < class %d (%.1f%%)", c+1, hi, c+2, lo)
		}
	}
	// Rejections: class 1 strictly fewer than class 4 (the ends of the
	// ordering; adjacent classes can tie on small runs).
	if res.AvgRejections[0] >= res.AvgRejections[3] {
		t.Errorf("avg rejections class1 %.2f >= class4 %.2f", res.AvgRejections[0], res.AvgRejections[3])
	}
	if res.AvgDelaySlots[0] >= res.AvgDelaySlots[3] {
		t.Errorf("avg delay class1 %.2f >= class4 %.2f", res.AvgDelaySlots[0], res.AvgDelaySlots[3])
	}
}

// TestNDACNoDifferentiation: the baseline treats classes alike — admission
// rates of all classes stay within a few points of each other.
func TestNDACNoDifferentiation(t *testing.T) {
	res := runSmall(t, func(cfg *Config) { cfg.Policy = dac.NDAC })
	var min, max float64 = 200, -1
	for c := 0; c < 4; c++ {
		v, ok := res.AdmissionRate[c].Last()
		if !ok {
			t.Fatal("empty admission series")
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 10 {
		t.Errorf("NDAC per-class admission spread %.1f points, want small", max-min)
	}
	// Under NDAC every supplier favors all classes, so no reminders are
	// ever recorded.
	if res.TotalReminders != 0 {
		t.Errorf("NDAC recorded %d reminders, want 0", res.TotalReminders)
	}
}

// TestDACAmplifiesFasterThanNDAC is Figure 4's claim: DAC reaches higher
// capacity than NDAC at the midpoint of the run and is never behind by the
// end of the arrival window.
func TestDACAmplifiesFasterThanNDAC(t *testing.T) {
	dacRes := runSmall(t, nil)
	ndacRes := runSmall(t, func(cfg *Config) { cfg.Policy = dac.NDAC })
	at := func(r *Result, h int) float64 {
		v, ok := r.Capacity.At(time.Duration(h) * time.Hour)
		if !ok {
			t.Fatalf("no capacity sample at %dh", h)
		}
		return v
	}
	mid := smallConfig().ArrivalWindow / 2
	if d, n := at(dacRes, int(mid.Hours())), at(ndacRes, int(mid.Hours())); d < n {
		t.Errorf("capacity at midpoint: DAC %.0f < NDAC %.0f", d, n)
	}
	// Overall admission benefit (the paper: DAC benefits all classes).
	dFinal, _ := dacRes.OverallAdmissionRate.Last()
	nFinal, _ := ndacRes.OverallAdmissionRate.Last()
	if dFinal+5 < nFinal {
		t.Errorf("final overall admission: DAC %.1f%% much below NDAC %.1f%%", dFinal, nFinal)
	}
}

// TestLowestFavoredDynamics: Figure 7's end state — once arrivals stop and
// capacity has grown, suppliers relax toward favoring every class.
func TestLowestFavoredDynamics(t *testing.T) {
	res := runSmall(t, func(cfg *Config) { cfg.Pattern = arrival.Pattern4PeriodicBursts })
	k := 4
	for c := 0; c < k; c++ {
		v, ok := res.LowestFavored[c].Last()
		if !ok {
			continue // no suppliers of this class appeared
		}
		if v < float64(k)-0.5 {
			t.Errorf("class-%d suppliers end at lowest favored %.2f, want ~%d (fully relaxed)", c+1, v, k)
		}
	}
	// Early in the run, class-1 suppliers must have favored fewer classes.
	early, ok := res.LowestFavored[0].At(3 * time.Hour)
	if !ok {
		t.Fatal("no early favored sample")
	}
	if early > 3.5 {
		t.Errorf("class-1 suppliers already relaxed to %.2f at 3h", early)
	}
}

func TestSeriesShapesConsistent(t *testing.T) {
	res := runSmall(t, nil)
	wantSamples := int(smallConfig().Horizon/smallConfig().SampleEvery) + 1
	if got := res.Capacity.Len(); got != wantSamples {
		t.Errorf("capacity samples = %d, want %d", got, wantSamples)
	}
	for c := 0; c < 4; c++ {
		if got := res.AdmissionRate[c].Len(); got != wantSamples {
			t.Errorf("admission samples class %d = %d, want %d", c+1, got, wantSamples)
		}
		if got := res.BufferingDelay[c].Len(); got != wantSamples {
			t.Errorf("delay samples class %d = %d, want %d", c+1, got, wantSamples)
		}
	}
	wantFavored := int(smallConfig().Horizon/smallConfig().FavoredSampleEvery) + 1
	for c := 0; c < 4; c++ {
		if got := res.LowestFavored[c].Len(); got != wantFavored {
			t.Errorf("favored samples class %d = %d, want %d", c+1, got, wantFavored)
		}
	}
}

// TestAdmissionRateMonotoneLate: once arrivals cease, accumulative admission
// rates can only rise (retries succeed, nobody new arrives).
func TestAdmissionRateMonotoneLate(t *testing.T) {
	res := runSmall(t, nil)
	window := smallConfig().ArrivalWindow
	for c := 0; c < 4; c++ {
		s := res.AdmissionRate[c]
		prev := -1.0
		for i := 0; i < s.Len(); i++ {
			if s.Times[i] <= window || s.Missing(i) {
				continue
			}
			if s.Values[i] < prev-1e-9 {
				t.Errorf("class %d admission rate fell after arrivals ended: %.3f -> %.3f", c+1, prev, s.Values[i])
			}
			prev = s.Values[i]
		}
	}
}

// TestBackoffSweepDirection reproduces Figure 9's surprising finding at
// small scale: constant backoff (E_bkf = 1) achieves an overall admission
// rate at least as high as strongly exponential backoff (E_bkf = 4).
func TestBackoffSweepDirection(t *testing.T) {
	constant := runSmall(t, func(cfg *Config) { cfg.Backoff.Factor = 1 })
	aggressive := runSmall(t, func(cfg *Config) { cfg.Backoff.Factor = 4 })
	c, _ := constant.OverallAdmissionRate.Last()
	a, _ := aggressive.OverallAdmissionRate.Last()
	if c < a {
		t.Errorf("overall admission: E_bkf=1 %.1f%% < E_bkf=4 %.1f%%", c, a)
	}
}

// TestValidateAssignmentsActive: the Theorem 1 check runs on every
// admission; a run with it enabled must complete without panicking and
// still admit peers.
func TestValidateAssignmentsActive(t *testing.T) {
	res := runSmall(t, func(cfg *Config) { cfg.ValidateAssignments = true })
	var admitted int64
	for _, a := range res.Admitted {
		admitted += a
	}
	if admitted == 0 {
		t.Error("no admissions with validation enabled")
	}
}

func TestTinySystemNoRequesters(t *testing.T) {
	res := runSmall(t, func(cfg *Config) { cfg.NumRequesters = 0 })
	// 20 class-1 seeds offering R0/2 each: capacity 10 forever.
	if got, _ := res.Capacity.Last(); got != 10 {
		t.Errorf("capacity with no requesters = %g, want 10", got)
	}
	if res.TotalRequests != 0 {
		t.Errorf("TotalRequests = %d, want 0", res.TotalRequests)
	}
}

// TestAllArrivalPatterns runs every pattern end to end and checks the basic
// workload accounting holds for each.
func TestAllArrivalPatterns(t *testing.T) {
	for p := 1; p <= 4; p++ {
		p := p
		t.Run(arrival.Pattern(p).String(), func(t *testing.T) {
			res := runSmall(t, func(cfg *Config) {
				cfg.NumRequesters = 800
				cfg.Pattern = arrival.Pattern(p)
			})
			var arrived int64
			for _, a := range res.Arrived {
				arrived += a
			}
			if arrived != 800 {
				t.Errorf("arrived %d, want 800", arrived)
			}
			last, _ := res.Capacity.Last()
			if last <= 10 {
				t.Errorf("capacity never grew: %.0f", last)
			}
		})
	}
}

// TestWaitingTimeConsistency: with validation on, the simulator asserts
// per-peer that waiting time equals the exact backoff sum; here we check
// the aggregate lower bound that convexity implies (mean wait >= wait at
// the floored mean rejection count) and that waits stay within the horizon.
func TestWaitingTimeConsistency(t *testing.T) {
	res := runSmall(t, nil) // ValidateAssignments on: per-peer equality checked inside
	for c := 0; c < 4; c++ {
		if res.Admitted[c] == 0 {
			continue
		}
		lo, err := res.Config.Backoff.TotalWait(int(res.AvgRejections[c]))
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgWait[c] < lo {
			t.Errorf("class %d: avg wait %v below convexity bound %v (avg rej %.2f)",
				c+1, res.AvgWait[c], lo, res.AvgRejections[c])
		}
		if res.AvgWait[c] > res.Config.Horizon {
			t.Errorf("class %d: avg wait %v beyond horizon", c+1, res.AvgWait[c])
		}
	}
}

// TestCapacityMatchesSupplierLedger: the final capacity equals the exact
// aggregate of seed offers plus admitted-and-finished requesters' offers.
func TestCapacityMatchesSupplierLedger(t *testing.T) {
	cfg := smallConfig()
	cfg.NumRequesters = 500
	// Horizon far beyond the last session end so every admitted peer has
	// been promoted.
	cfg.Horizon = 96 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := bandwidth.Fraction(cfg.NumSeeds) * cfg.SeedClass.Offer()
	for c := 0; c < 4; c++ {
		agg += bandwidth.Fraction(res.Admitted[c]) * bandwidth.Class(c+1).Offer()
	}
	want := float64(bandwidth.Sessions(agg))
	got, _ := res.Capacity.Last()
	if got != want {
		t.Errorf("final capacity %.0f, ledger says %.0f", got, want)
	}
}
