package scenario

import (
	"fmt"
	"time"

	"p2pstream/internal/dac"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
)

// The chord-scale family is the decentralized half of the population
// story: rings of 64, 256 and 1024 members with replicated registrations
// and virtual-node skew flattening, each losing a seed to a hard crash
// mid-run. The family shares one Report series (LookupHops), so the
// routing cost's O(log n) growth is measurable across the sizes; the
// replication keeps every run at zero lookup misses through the crash.
// These specs live outside Catalog() — the conformance suite runs every
// catalog entry under -race -count=2, while a four-digit ring belongs to
// the scale suite (TestChordScaleHops, cmd/p2pscen).

// ChordScale returns an n-member decentralized overlay: n/4 seeds found
// the ring, the remaining requesters arrive as a dispersed crowd, and one
// non-founder seed crashes while the crowd is still streaming. K=3
// replication plus V=4 virtual positions per member is the configuration
// the replicated-churn conformance entry pins down; here it is carried to
// ring sizes where the per-lookup hop count, not the session, dominates
// discovery cost.
func ChordScale(n int) Spec {
	nSeeds := n / 4
	// The crowd arrives after a one-second warmup: the seeds' finger
	// tables refresh fully in FingerBits/fingersPerRound = 16 stabilization
	// rounds, and hops are only worth measuring once walks route through
	// fingers instead of terminating at a founder whose view is still
	// singleton (every pre-stabilization lookup costs zero hops and is
	// answered from forwarding strays — a measurement of nothing).
	const warmup = time.Second
	reqs := make([]Peer, n-nSeeds)
	for i := range reqs {
		// Millisecond-dispersed arrivals (the megacrowd idiom): a flash
		// crowd, not a single-instant trigger race.
		reqs[i] = Peer{
			ID:    fmt.Sprintf("cn%d", i),
			Class: 1,
			Start: warmup + time.Duration(i%256)*80*time.Microsecond,
		}
	}
	name := fmt.Sprintf("chord-%d", n)
	if n >= 1000 {
		name = fmt.Sprintf("chord-%dk", n/1000)
	}
	return Spec{
		Name: name,
		Stresses: fmt.Sprintf(
			"a %d-member replicated chord ring (K=3, V=4) under owner-crash churn: O(log n) lookup hops, zero lookup misses",
			n),
		Discovery:         BackendChord,
		ChordReplication:  3,
		ChordVirtualNodes: 4,
		// A 50ms period trades warmup length against repair traffic: the
		// full finger table refreshes in 800ms (inside the warmup), while
		// the post-crash splice-out still takes long enough that lookups
		// in flight must be answered by replicas, not by a repair round.
		ChordStabilize: 50 * time.Millisecond,
		Seeds:          classOneSeeds("cs", nSeeds),
		Requesters:     reqs,
		Churn: []ChurnEvent{
			// A non-founder seed, crashed while the crowd's lookups are in
			// full flight (40ms after the first arrivals).
			{At: warmup + 40*time.Millisecond, Action: Crash, Node: "cs1"},
		},
		// A short clip keeps one session a few δt, so discovery cost — not
		// stream length — dominates the run.
		Objects: []*media.File{{Name: "clip", Segments: 4, SegmentBytes: 64, SegmentTime: 2 * time.Millisecond}},
		// Jitter-free LAN plus a coalescing clock: the megacrowd levers that
		// make four-digit host counts wall-clock cheap.
		DefaultLink:   netx.LinkConfig{Latency: 300 * time.Microsecond},
		ClockCoalesce: time.Millisecond,
		M:             4,
		Backoff:       dac.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 40 * time.Millisecond, Jitter: 0.5},
		MaxAttempts:   400,
		NoAdapt:       true,
		// Population-scale wall-clock scheduling skew exceeds the
		// one-segment playback allowance; byte-exact stores and the Theorem 1
		// delay bound remain asserted.
		Expect: Expect{AllowStalls: true, NoLookupMisses: true, MinReplicaAnswered: 1},
	}
}

// ChordScaleCatalog returns the chord-scale family: 64-, 256- and
// 1024-member replicated rings. Runnable standalone via cmd/p2pscen; the
// family is asserted together by TestChordScaleHops, which measures the
// hop growth across the sizes.
func ChordScaleCatalog() []Spec {
	return []Spec{
		ChordScale(64),
		ChordScale(256),
		ChordScale(1024),
	}
}
