package scenario

import (
	"fmt"
	"time"

	"p2pstream/internal/media"
	"p2pstream/internal/netx"

	"p2pstream/internal/dac"
)

// The megacrowd family is the paper's population-scale claim made
// executable: a six-digit flash crowd against a seeded overlay, absorbed by
// nothing but DAC capacity amplification. These specs live outside
// Catalog() — the conformance suite runs every catalog entry under -race
// -count=2, while a hundred-thousand-host run belongs to the scale suite
// (TestMegacrowd*, cmd/p2pscen, bench/'s crowd-vnet).

// megacrowdSeeds is the seeded overlay the crowd slams into: enough initial
// capacity that the admission tail is shaped by amplification, not by a
// cold-start bottleneck.
const megacrowdSeeds = 512

// Megacrowd returns an n-requester flash crowd: every requester arrives in
// the same instant against megacrowdSeeds class-1 seeds streaming a short
// clip. Rejected peers retry on the paper's exponential backoff with a
// short base, so the retry load thins as DAC capacity amplifies and the
// report's admission-latency and rejection-rate quantiles trace the
// absorption generation by generation.
func Megacrowd(n int) Spec {
	reqs := make([]Peer, n)
	for i := range reqs {
		// The crowd arrives within one session length (~10ms), not on one
		// nanosecond: a literal same-instant wave makes every first probe
		// collide on the same few suppliers, measuring the trigger race
		// instead of admission control. Real flash crowds have millisecond
		// dispersion; this keeps it while staying a flash crowd.
		reqs[i] = Peer{
			ID:    fmt.Sprintf("m%d", i),
			Class: 1,
			Start: time.Duration(i%256) * 40 * time.Microsecond,
		}
	}
	return Spec{
		Name: fmt.Sprintf("megacrowd-%dk", n/1000),
		Stresses: fmt.Sprintf(
			"a %d-requester flash crowd against %d seeds: population-scale admission, quantile tails, zero allocation steady state",
			n, megacrowdSeeds),
		Seeds:      classOneSeeds("ms", megacrowdSeeds),
		Requesters: reqs,
		// A short clip keeps one session ~4·δt so capacity amplification —
		// not stream length — dominates the admission tail.
		Objects: []*media.File{{Name: "clip", Segments: 4, SegmentBytes: 64, SegmentTime: 2 * time.Millisecond}},
		// Jitter-free LAN: deliveries land on shared instants, so the
		// clock's coalescing window drains whole crowd waves per advance.
		DefaultLink: netx.LinkConfig{Latency: 300 * time.Microsecond},
		M:           4,
		// Short capped backoff with jitter: the cap keeps stragglers from
		// sleeping past the crowd's absorption, the jitter desynchronizes
		// rejection cohorts so trigger races don't recur every wake.
		Backoff:     dac.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 40 * time.Millisecond, Jitter: 0.5},
		MaxAttempts: 400,
		// One advance per millisecond of virtual time, not per event
		// instant: the wall-clock lever that makes six digits feasible.
		ClockCoalesce: time.Millisecond,
		// Population-scale specs study admission, not the data plane: the
		// legacy burst loop keeps per-segment message count (and so wall
		// clock) at the admission-study minimum. The congestion catalog
		// exercises adaptation.
		NoAdapt: true,
		// Population-scale wall-clock scheduling skew exceeds the
		// one-segment playback allowance; byte-exact stores and the
		// Theorem 1 delay bound remain asserted. Nothing fails in a crowd, so
		// every trigger must ride the line its grant was given on.
		Expect: Expect{AllowStalls: true, MinAttempts: 2, NoTriggerDials: true},
	}
}

// ScaleCatalog returns the population-scale scenario family: flash crowds
// of 10k, 50k and 100k requesters. Runnable standalone via cmd/p2pscen;
// the 10k entry is asserted by TestMegacrowd10k on every plain test run,
// the larger ones by TestMegacrowdFull under MEGACROWD=full.
func ScaleCatalog() []Spec {
	return []Spec{
		Megacrowd(10_000),
		Megacrowd(50_000),
		Megacrowd(100_000),
	}
}
