package system

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chord"
	"p2pstream/internal/dac"
)

func TestChordLookupRunMatchesDirectoryShape(t *testing.T) {
	run := func(kind LookupKind) *Result {
		cfg := smallConfig()
		cfg.NumRequesters = 800
		cfg.Lookup = kind
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dir := run(LookupDirectory)
	ch := run(LookupChord)

	dLast, _ := dir.Capacity.Last()
	cLast, _ := ch.Capacity.Last()
	if dLast == 0 || cLast == 0 {
		t.Fatal("no capacity growth")
	}
	// Both substrates sample supplying peers roughly uniformly; final
	// capacity must agree within 15%.
	ratio := cLast / dLast
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("chord/directory final capacity ratio %.2f, want ~1", ratio)
	}
	// Differentiation ordering survives the substrate swap.
	if ch.AvgRejections[0] >= ch.AvgRejections[3] {
		t.Errorf("chord run lost class ordering: %.2f vs %.2f", ch.AvgRejections[0], ch.AvgRejections[3])
	}
}

func TestChordLookupDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.NumRequesters = 300
	cfg.Lookup = LookupChord
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.TotalRequests != b.TotalRequests {
		t.Error("chord-backed run not deterministic")
	}
}

func TestDownProbDegradesAdmission(t *testing.T) {
	run := func(down float64) *Result {
		cfg := smallConfig()
		cfg.NumRequesters = 1000
		cfg.DownProb = down
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(0)
	degraded := run(0.5)
	if healthy.TotalDown != 0 {
		t.Errorf("TotalDown = %d with DownProb 0", healthy.TotalDown)
	}
	if degraded.TotalDown == 0 {
		t.Error("no down encounters with DownProb 0.5")
	}
	// Half the probes vanishing must cost admissions at the midpoint.
	mid := smallConfig().ArrivalWindow
	h, _ := healthy.OverallAdmissionRate.At(mid)
	d, _ := degraded.OverallAdmissionRate.At(mid)
	if d >= h {
		t.Errorf("admission with 50%% down (%.1f%%) >= healthy (%.1f%%)", d, h)
	}
	hc, _ := healthy.Capacity.At(mid)
	dc, _ := degraded.Capacity.At(mid)
	if dc >= hc {
		t.Errorf("capacity with 50%% down (%.0f) >= healthy (%.0f)", dc, hc)
	}
}

func TestNewConfigFieldsValidated(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad lookup kind", func(c *Config) { c.Lookup = LookupKind(9) }},
		{"chord without stabilize period", func(c *Config) { c.Lookup = LookupChord; c.ChordStabilizeEvery = 0 }},
		{"negative down prob", func(c *Config) { c.DownProb = -0.1 }},
		{"down prob one", func(c *Config) { c.DownProb = 1.0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
	if LookupDirectory.String() != "directory" || LookupChord.String() != "chord" {
		t.Error("LookupKind strings wrong")
	}
	if LookupKind(9).String() == "" {
		t.Error("unknown kind should still print")
	}
}

func TestChordStabilizationBatching(t *testing.T) {
	// A chord-backed run with a long stabilization period still admits
	// peers: pending suppliers are flushed on the first post-period lookup.
	cfg := smallConfig()
	cfg.NumRequesters = 300
	cfg.Lookup = LookupChord
	cfg.ChordStabilizeEvery = 6 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var admitted int64
	for _, a := range res.Admitted {
		admitted += a
	}
	if admitted == 0 {
		t.Error("no admissions with batched stabilization")
	}
	last, _ := res.Capacity.Last()
	if last <= 10 {
		t.Errorf("capacity never grew: %.0f", last)
	}
}

func TestDownProbWithNDAC(t *testing.T) {
	cfg := smallConfig()
	cfg.NumRequesters = 500
	cfg.Policy = dac.NDAC
	cfg.DownProb = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDown == 0 {
		t.Error("down injection inactive under NDAC")
	}
}

// TestChordOwnerMatchesBruteForce: over random member sets joining in
// random stabilization batches, the ring stays sorted and its owner of a
// position is the brute-force successor — the member with the smallest
// position at or past it, or else the smallest position (the wrap). The
// reference positions are chord.HashKey of each supplier's name.
func TestChordOwnerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		c := newChordSource(func() time.Duration { return 0 }, time.Hour)
		var members []ringMember
		for batch := 1 + rng.Intn(6); batch > 0; batch-- {
			for n := 1 + rng.Intn(40); n > 0; n-- {
				id := rng.Intn(1 << 20)
				if slices.ContainsFunc(members, func(m ringMember) bool { return m.id == id }) {
					continue
				}
				m := ringMember{pos: chord.HashKey(fmt.Sprintf("p%d", id)), id: id, class: bandwidth.Class(1 + id%4)}
				members = append(members, m)
				if err := c.register(m.id, m.class); err != nil {
					t.Fatal(err)
				}
			}
			c.stabilize()
			if len(c.ring) != len(members) {
				t.Fatalf("trial %d: ring holds %d members, %d registered", trial, len(c.ring), len(members))
			}
			for i := 1; i < len(c.ring); i++ {
				if c.ring[i-1].pos >= c.ring[i].pos {
					t.Fatalf("trial %d: ring not sorted at %d", trial, i)
				}
			}
			probes := []uint64{0, math.MaxUint64}
			for _, m := range members {
				probes = append(probes, m.pos-1, m.pos, m.pos+1)
			}
			for k := 0; k < 200; k++ {
				probes = append(probes, rng.Uint64())
			}
			for _, h := range probes {
				var want *ringMember
				wrap := &members[0]
				for i := range members {
					m := &members[i]
					if m.pos >= h && (want == nil || m.pos < want.pos) {
						want = m
					}
					if m.pos < wrap.pos {
						wrap = m
					}
				}
				if want == nil {
					want = wrap
				}
				if got := c.owner(h); *got != *want {
					t.Fatalf("trial %d: owner(%#x) = %+v, want %+v", trial, h, *got, *want)
				}
			}
		}
	}
}

// TestChordDrawHashMatchesHashKey: the draw key hashed in the source's
// buffer lands where chord.HashKey puts the formatted key.
func TestChordDrawHashMatchesHashKey(t *testing.T) {
	c := newChordSource(func() time.Duration { return 0 }, time.Hour)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		n := rng.Int63()
		if i%2 == 0 {
			n = int64(i) // short keys too
		}
		if got, want := c.hash("sample-", n), chord.HashKey(fmt.Sprintf("sample-%d", n)); got != want {
			t.Fatalf("hash(sample-%d) = %#x, want %#x", n, got, want)
		}
	}
	if got, want := c.hash("p", 42), chord.HashKey("p42"); got != want {
		t.Fatalf("hash(p42) = %#x, want %#x", got, want)
	}
}

// TestChordSample: a draw never returns the bootstrap supplier or one
// twice, clamps m to everyone but the bootstrap, and two suppliers on one
// position panic naming both.
func TestChordSample(t *testing.T) {
	c := newChordSource(func() time.Duration { return 0 }, time.Hour)
	rng := rand.New(rand.NewSource(4))
	if got := c.sample(8, rng); len(got) != 0 {
		t.Fatalf("empty ring sampled %v", got)
	}
	for id := 0; id < 60; id++ {
		if err := c.register(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.sample(8, rng); len(got) != 0 {
		t.Fatalf("a ring of the bootstrap alone sampled %v", got)
	}
	c.stabilize()
	for range 200 { // 1,600 draws: the bootstrap's arc is hit about 27 times
		got := c.sample(8, rng)
		if len(got) != 8 {
			t.Fatalf("sampled %d of 60, want 8", len(got))
		}
		seen := map[int]bool{}
		for _, e := range got {
			if e.ID == 0 || seen[e.ID] {
				t.Fatalf("sample %v holds the bootstrap or a duplicate", got)
			}
			seen[e.ID] = true
		}
	}

	small := newChordSource(func() time.Duration { return 0 }, time.Hour)
	for id := 0; id < 3; id++ {
		small.register(id, 1)
	}
	small.stabilize()
	if got := small.sample(10, rng); len(got) != 2 {
		t.Errorf("sampled %d of 3, want the 2 besides the bootstrap", len(got))
	}

	// A second p1 collides with the one on the ring, and a second p5 with
	// the one in its own batch.
	for _, ids := range [][]int{{1}, {5, 5}} {
		func() {
			defer func() {
				want := fmt.Sprintf("p%d and p%d", ids[0], ids[0])
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("joining %v: recovered %q, want a collision naming %s", ids, msg, want)
				}
			}()
			c := newChordSource(func() time.Duration { return 0 }, time.Hour)
			c.register(0, 1)
			c.register(1, 1)
			c.stabilize()
			for _, id := range ids {
				c.register(id, 2)
			}
			c.stabilize()
		}()
	}
}
