package scenario

import (
	"fmt"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
)

// lan is the healthy link most scenarios start from.
var lan = netx.LinkConfig{Latency: 300 * time.Microsecond, Jitter: 200 * time.Microsecond}

// far is a high-RTT access link: well within the one-segment-time playback
// allowance, but an order of magnitude slower than the LAN default.
var far = netx.LinkConfig{Latency: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}

// classOneSeeds returns n class-1 seeds named prefix0, prefix1, ...: the
// seed population of the replicated and population-scale entries.
func classOneSeeds(prefix string, n int) []Peer {
	seeds := make([]Peer, n)
	for i := range seeds {
		// Not "%s%d": a boxed prefix would allocate once more per seed.
		seeds[i] = Peer{ID: fmt.Sprintf(prefix+"%d", i), Class: 1}
	}
	return seeds
}

// Catalog returns the named scenarios of the conformance suite, each an
// RFC 8867-style stress expressed as data. Every entry is asserted by the
// tests in this package and runnable standalone via cmd/p2pscen.
func Catalog() []Spec {
	return []Spec{
		variableCapacity(),
		multipleBottlenecks(),
		rttFairness(),
		flashCrowd(),
		churnStorm(),
		pauseResume(),
		partitionHeal(),
		seedStarvation(),
		lossyLinks(),
		decentralizedLookup(),
		directoryCrash(),
		chordChurn(),
		replicatedChurn(),
		shardedLookup(),
		shardCrash(),
		shardRejoin(),
		reshardFlash(),
		reshardDrain(),
		competingMediaFlows(),
		mediaVsTCPFlows(),
		priorityFlows(),
		zipfPopularity(),
		cacheChurn(),
	}
}

// ByName returns the catalog scenario with the given name, searching the
// conformance catalog first, then the population-scale families (built
// only when the search reaches them).
func ByName(name string) (Spec, bool) {
	for _, family := range []func() []Spec{Catalog, ScaleCatalog, ChordScaleCatalog} {
		for _, s := range family() {
			if s.Name == name {
				return s, true
			}
		}
	}
	return Spec{}, false
}

// variableCapacity degrades every link mid-run — 300µs LAN to a 2.5ms,
// 20%-loss WAN and back — while staggered sessions span all three phases.
func variableCapacity() Spec {
	bad := netx.LinkConfig{Latency: 2500 * time.Microsecond, Jitter: 500 * time.Microsecond, Loss: 0.2}
	return Spec{
		Name:     "variable-capacity",
		Stresses: "sessions and admission sweeps surviving a network-wide capacity dip (degrade at 80ms, recover at 240ms)",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 50 * time.Millisecond},
			{ID: "n2", Class: 1, Start: 100 * time.Millisecond},
			{ID: "n3", Class: 1, Start: 150 * time.Millisecond},
			{ID: "n4", Class: 1, Start: 200 * time.Millisecond},
		},
		Events: []LinkEvent{
			{At: 80 * time.Millisecond, Link: Link{Config: bad}},
			{At: 240 * time.Millisecond, Link: Link{Config: lan}},
		},
		Expect: Expect{AllowStalls: true}, // loss retransmission spikes may stall playback
	}
}

// multipleBottlenecks puts two requester groups behind distinct slow
// access links while a near group competes over the fast core.
func multipleBottlenecks() Spec {
	bottleneck1 := netx.LinkConfig{Latency: 1200 * time.Microsecond, Jitter: 300 * time.Microsecond}
	bottleneck2 := netx.LinkConfig{Latency: 2500 * time.Microsecond, Jitter: 500 * time.Microsecond}
	return Spec{
		Name:     "multiple-bottlenecks",
		Stresses: "admission and streaming across heterogeneous access links (two distinct bottlenecks plus a fast core)",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "a1", Class: 1, Start: 0},
			{ID: "a2", Class: 1, Start: 60 * time.Millisecond},
			{ID: "b1", Class: 2, Start: 120 * time.Millisecond},
			{ID: "b2", Class: 1, Start: 180 * time.Millisecond},
			{ID: "c1", Class: 2, Start: 240 * time.Millisecond},
		},
		Links: []Link{
			{A: "b1", B: Wildcard, Config: bottleneck1},
			{A: "b2", B: Wildcard, Config: bottleneck1},
			{A: "c1", B: Wildcard, Config: bottleneck2},
		},
	}
}

// rttFairness interleaves a near cluster and a far cluster (2ms access
// links) of identical classes: distance must cost latency, not service.
func rttFairness() Spec {
	return Spec{
		Name:     "rtt-fairness",
		Stresses: "far-cluster peers competing with near peers for the same suppliers (RTT bias must not starve them)",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "near1", Class: 1, Start: 0},
			{ID: "far1", Class: 1, Start: 20 * time.Millisecond},
			{ID: "near2", Class: 1, Start: 40 * time.Millisecond},
			{ID: "far2", Class: 1, Start: 60 * time.Millisecond},
			{ID: "near3", Class: 1, Start: 80 * time.Millisecond},
			{ID: "far3", Class: 1, Start: 100 * time.Millisecond},
		},
		Links: []Link{
			{A: "far1", B: Wildcard, Config: far},
			{A: "far2", B: Wildcard, Config: far},
			{A: "far3", B: Wildcard, Config: far},
		},
	}
}

// flashCrowd has eight requesters arrive in the same instant against three
// seeds: initial capacity serves one session, so most of the crowd must
// retry while served peers turn into suppliers.
func flashCrowd() Spec {
	return Spec{
		Name:     "flash-crowd",
		Stresses: "simultaneous arrivals racing for grants; capacity amplification absorbing the backlog",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}, {ID: "s3", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1}, {ID: "n1", Class: 1}, {ID: "n2", Class: 2},
			{ID: "n3", Class: 1}, {ID: "n4", Class: 2}, {ID: "n5", Class: 1},
			{ID: "n6", Class: 1}, {ID: "n7", Class: 2},
		},
		MaxAttempts: 80,
		Expect:      Expect{MinAttempts: 2, NoTriggerDials: true},
	}
}

// churnStorm is the harness port of the original hand-built acceptance
// scenario, extended with a rejoin: staggered mixed-class arrivals, three
// far hosts, a seed crashing hard mid-run (staying in the directory, so
// sweeps exercise the "down" path), a grown supplier leaving gracefully, a
// fresh late joiner after the storm — and finally the crashed seed's host
// rejoining as a requester with an empty store.
func churnStorm() Spec {
	classes := []int{1, 1, 2, 1, 2, 1, 2, 1, 1, 2}
	reqs := make([]Peer, len(classes))
	for i, c := range classes {
		reqs[i] = Peer{
			ID:    fmt.Sprintf("n%d", i),
			Class: bandwidth.Class(c),
			Start: time.Duration(i) * 80 * time.Millisecond,
		}
	}
	return Spec{
		Name:       "churn-storm",
		Stresses:   "crash + graceful leave + rejoin under staggered mixed-class load with far hosts",
		Seeds:      []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}, {ID: "s3", Class: 1}},
		Requesters: reqs,
		Links: []Link{
			{A: "n7", B: Wildcard, Config: far},
			{A: "n8", B: Wildcard, Config: far},
			{A: "n9", B: Wildcard, Config: far},
		},
		Churn: []ChurnEvent{
			{At: 200 * time.Millisecond, Action: Crash, Node: "s3"},
			{At: 500 * time.Millisecond, Action: Leave, Node: "n0"},
			{At: 900 * time.Millisecond, Action: Join, Node: "n10", Class: 1},
			{At: 1000 * time.Millisecond, Action: Join, Node: "s3", Class: 1},
		},
	}
}

// pauseResume runs a class-1 wave, lets demand pause long enough for idle
// elevation to relax every supplier, then resumes with class-4 requesters
// that only the relaxed vectors admit deterministically.
func pauseResume() Spec {
	return Spec{
		Name:     "pause-resume",
		Stresses: "idle elevation across a demand pause: lowest-class requesters admitted after suppliers relax",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "w1", Class: 1, Start: 0},
			{ID: "w2", Class: 1, Start: 15 * time.Millisecond},
			{ID: "w3", Class: 1, Start: 30 * time.Millisecond},
			{ID: "p1", Class: 4, Start: 400 * time.Millisecond},
			{ID: "p2", Class: 4, Start: 420 * time.Millisecond},
		},
	}
}

// partitionHeal isolates two requesters behind blocked links; until the
// heal event they can reach nothing (not even the directory), afterwards
// they must catch up completely.
func partitionHeal() Spec {
	blocked := lan
	blocked.Blocked = true
	return Spec{
		Name:     "partition-heal",
		Stresses: "requesters cut off from the entire overlay (directory included) recovering after the partition heals at 300ms",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "n1", Class: 1, Start: 0},
			{ID: "n2", Class: 1, Start: 40 * time.Millisecond},
			{ID: "p1", Class: 1, Start: 60 * time.Millisecond},
			{ID: "p2", Class: 1, Start: 80 * time.Millisecond},
		},
		Links: []Link{
			{A: "p1", B: Wildcard, Config: blocked},
			{A: "p2", B: Wildcard, Config: blocked},
		},
		Events: []LinkEvent{
			{At: 300 * time.Millisecond, Link: Link{A: "p1", B: Wildcard, Config: lan}},
			{At: 300 * time.Millisecond, Link: Link{A: "p2", B: Wildcard, Config: lan}},
		},
	}
}

// seedStarvation floods two lone seeds with eight class-2 requesters: the
// overlay starts with capacity for a single session, so service crawls
// until served peers amplify capacity — the paper's growth story under
// maximal scarcity.
func seedStarvation() Spec {
	reqs := make([]Peer, 8)
	for i := range reqs {
		reqs[i] = Peer{
			ID:    fmt.Sprintf("q%d", i),
			Class: 2,
			Start: time.Duration(i) * 5 * time.Millisecond,
		}
	}
	return Spec{
		Name:        "seed-starvation",
		Stresses:    "deep admission contention on minimal seed capacity; growth through served peers re-supplying",
		Seeds:       []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters:  reqs,
		MaxAttempts: 80,
		Expect:      Expect{MinAttempts: 3},
	}
}

// decentralizedLookup runs a staggered mixed-class workload with zero
// directory servers anywhere: supplying peers form a wire-level chord
// ring, and every candidate set comes from routed random-key lookups.
// Every session must still complete byte-exact within the Theorem 1 n·δt
// bound — full decentralization costs lookup hops, not correctness.
func decentralizedLookup() Spec {
	return Spec{
		Name:      "decentralized-lookup",
		Stresses:  "fully decentralized operation: chord-ring candidate discovery with no directory server running at all",
		Discovery: BackendChord,
		Seeds:     []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 60 * time.Millisecond},
			{ID: "n2", Class: 2, Start: 120 * time.Millisecond},
			{ID: "n3", Class: 1, Start: 180 * time.Millisecond},
			{ID: "n4", Class: 2, Start: 240 * time.Millisecond},
		},
	}
}

// directoryCrash boots a directory server that nothing uses (chord
// discovery carries the overlay) and kills it while sessions are in
// flight: n0 and n1 are mid-session at the 60ms crash, n2 and n3 arrive
// after the directory is gone. Everyone must be served — the directory is
// a decoy, not a dependency.
func directoryCrash() Spec {
	return Spec{
		Name:          "directory-crash",
		Stresses:      "a mid-run directory kill as a non-event: chord-backed sessions in flight and arriving afterwards all complete",
		Discovery:     BackendChord,
		KeepDirectory: true,
		Seeds:         []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 40 * time.Millisecond},
			{ID: "n2", Class: 1, Start: 150 * time.Millisecond},
			{ID: "n3", Class: 2, Start: 220 * time.Millisecond},
		},
		Churn: []ChurnEvent{
			{At: 60 * time.Millisecond, Action: Crash, Node: DirectoryHost},
		},
	}
}

// chordChurn stresses ring healing at the wire level with the harness's
// crash/rejoin plumbing: a seed crashes hard (stale ring entries feed the
// admission sweep's down path until neighbors evict it), a served peer
// leaves gracefully, a fresh peer joins late, and the crashed seed's host
// finally rejoins as a requester with an empty store.
func chordChurn() Spec {
	return Spec{
		Name:      "chord-churn",
		Stresses:  "chord ring healing under crash + graceful leave + rejoin, with discovery-only recovery (no directory fallback)",
		Discovery: BackendChord,
		Seeds:     []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}, {ID: "s3", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 80 * time.Millisecond},
			{ID: "n2", Class: 2, Start: 160 * time.Millisecond},
			{ID: "n3", Class: 1, Start: 240 * time.Millisecond},
			{ID: "n4", Class: 2, Start: 320 * time.Millisecond},
		},
		Churn: []ChurnEvent{
			{At: 200 * time.Millisecond, Action: Crash, Node: "s3"},
			{At: 480 * time.Millisecond, Action: Leave, Node: "n0"},
			{At: 600 * time.Millisecond, Action: Join, Node: "n5", Class: 1},
			{At: 700 * time.Millisecond, Action: Join, Node: "s3", Class: 1},
		},
	}
}

// replicatedChurn is the closed-churn-window scenario: a 64-member chord
// ring (16 seeds, 48 staggered requesters) with K=3 successor replication
// and V=4 virtual positions per member loses a seed to a hard crash
// mid-run. Unreplicated, every lookup routing into the corpse's arc came
// up empty until stabilization spliced it out — a churn window one
// stabilization period wide. Replicated, the corpse's records answer from
// its successors the instant the crash lands: the run must finish with
// zero lookup misses, and at least one lookup must actually have been
// served by a replica (the fail-over path ran; it was not just never
// needed).
func replicatedChurn() Spec {
	reqs := make([]Peer, 48)
	for i := range reqs {
		reqs[i] = Peer{
			ID:    fmt.Sprintf("rn%d", i),
			Class: bandwidth.Class(1 + i%2),
			Start: time.Duration(i) * 8 * time.Millisecond,
		}
	}
	return Spec{
		Name:              "replicated-churn",
		Stresses:          "zero-width churn window: K=3 replicated registrations keep a crashed owner's arc resolvable with no lookup misses",
		Discovery:         BackendChord,
		ChordReplication:  3,
		ChordVirtualNodes: 4,
		// Slow stabilization keeps the crashed seed spliced into the ring for
		// several lookup generations: the zero-miss run is the replicas'
		// doing, not a fast repair round's.
		ChordStabilize: 150 * time.Millisecond,
		Seeds:          classOneSeeds("rs", 16),
		Requesters:     reqs,
		Churn: []ChurnEvent{
			// A non-founder seed: the ring survives, its arc's records must
			// answer from replicas while the neighbors still route to it.
			{At: 120 * time.Millisecond, Action: Crash, Node: "rs7"},
		},
		// A short clip over a jitter-free LAN with a coalescing clock: the
		// scenario studies the discovery plane's churn window, so the data
		// plane is kept at its wall-clock minimum (this entry runs under
		// -race -count=2 with the rest of the catalog).
		Objects:       []*media.File{{Name: "clip", Segments: 4, SegmentBytes: 64, SegmentTime: 2 * time.Millisecond}},
		DefaultLink:   netx.LinkConfig{Latency: 300 * time.Microsecond},
		ClockCoalesce: time.Millisecond,
		NoAdapt:       true,
		Expect:        Expect{AllowStalls: true, NoLookupMisses: true, MinReplicaAnswered: 1},
	}
}

// The sharded-directory scenarios split the registry over three shard
// servers by consistent hashing (Spec.DirectoryShards). The peer IDs are
// chosen so the deterministic ShardRing spreads seeds and requesters over
// all three shards: s5 and n0 hash to shard 0, s1 and n4 to shard 1, r3
// and n1/n2/n3 to shard 2 (asserted by the detail tests, so a hash change
// cannot silently invalidate the designs).

// shardedLookup is the sharded steady state: every Register lands on the
// owning shard, every Candidates call fans out across all three, and
// every session completes byte-exact within n·δt — sharding the registry
// costs nothing when nothing fails.
func shardedLookup() Spec {
	return Spec{
		Name:            "sharded-lookup",
		Stresses:        "consistent-hash registry sharding in steady state: owner-routed registrations, fan-out lookups, three shards, zero losses",
		DirectoryShards: 3,
		Seeds:           []Peer{{ID: "s1", Class: 1}, {ID: "s5", Class: 1}, {ID: "r3", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 60 * time.Millisecond},
			{ID: "n2", Class: 2, Start: 120 * time.Millisecond},
			{ID: "n3", Class: 1, Start: 180 * time.Millisecond},
			{ID: "n4", Class: 2, Start: 240 * time.Millisecond},
		},
	}
}

// shardCrash kills registry shard 2 mid-run: the seed it holds (r3) and
// every supplier hashing there turn invisible, so candidate diversity
// degrades — but lookups keep answering from the surviving shards and
// every session completes. Per-shard failure isolation, end to end.
func shardCrash() Spec {
	return Spec{
		Name:            "shard-crash",
		Stresses:        "a mid-run registry shard kill: candidate diversity degrades, lookups and sessions never fail",
		DirectoryShards: 3,
		Seeds:           []Peer{{ID: "s1", Class: 1}, {ID: "s5", Class: 1}, {ID: "r3", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n2", Class: 1, Start: 40 * time.Millisecond}, // mid-session at the kill; owned by the dying shard
			{ID: "n4", Class: 1, Start: 150 * time.Millisecond},
			{ID: "n8", Class: 2, Start: 220 * time.Millisecond},
			{ID: "n5", Class: 2, Start: 290 * time.Millisecond},
		},
		Churn: []ChurnEvent{
			{At: 70 * time.Millisecond, Action: Crash, Node: ShardHost(2)},
		},
	}
}

// shardRejoin crashes shard 2 and brings it back: the reborn server
// starts empty, and the clients' lease re-registrations repopulate it
// within one refresh interval — suppliers lost to the crash (the seed r3,
// the served requester n1) are discoverable again without any node-level
// action, and post-rejoin arrivals see full candidate diversity.
func shardRejoin() Spec {
	return Spec{
		Name:            "shard-rejoin",
		Stresses:        "registry shard crash + rebirth: an empty reborn shard repopulated by lease re-registration, diversity recovered",
		DirectoryShards: 3,
		Seeds:           []Peer{{ID: "s1", Class: 1}, {ID: "s5", Class: 1}, {ID: "r3", Class: 1}},
		Requesters: []Peer{
			{ID: "n0", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 60 * time.Millisecond}, // completes during the outage; its registration rides the lease
			{ID: "n2", Class: 2, Start: 140 * time.Millisecond},
			{ID: "n3", Class: 1, Start: 400 * time.Millisecond},
			{ID: "n4", Class: 2, Start: 480 * time.Millisecond},
		},
		Churn: []ChurnEvent{
			{At: 80 * time.Millisecond, Action: Crash, Node: ShardHost(2)},
			{At: 320 * time.Millisecond, Action: Join, Node: ShardHost(2)},
		},
	}
}

// reshardFlash starts the registry as the single centralized server and
// throws a same-instant flash crowd at it: the autoscaling controller
// sees the lookup surge, grows the shard set to four live shards within
// four sampling ticks (each growth a resharding epoch the watching
// clients migrate across in one batched round), then drains back down as
// the served crowd's retry storm dies away — the full elastic lifecycle
// in under a second of protocol time. The acceptance envelope pins the
// contract: at least three epoch flips, zero lost registrations under
// the final ring, zero empty lookups, and every migration converging
// faster than the 40ms lease-refresh period (elasticity beats waiting
// out a passive lease turnover).
func reshardFlash() Spec {
	reqs := make([]Peer, 16)
	for i := range reqs {
		class := bandwidth.Class(1)
		if i%3 == 2 {
			class = 2
		}
		reqs[i] = Peer{ID: fmt.Sprintf("n%d", i), Class: class}
	}
	return Spec{
		Name:     "reshard-flash",
		Stresses: "live scale-out under a flash crowd: one shard grows to four across resharding epochs with zero lost registrations",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}, {ID: "s3", Class: 1}},
		Autoscale: &Autoscale{
			HighWater: 3,
			LowWater:  1,
			Sustain:   1, // a flash crowd is exactly the load spike worth reacting to immediately
			MaxShards: 4,
		},
		Requesters:  reqs,
		MaxAttempts: 80,
		// A 16-peer same-instant crowd in a deterministic backoff schedule
		// re-collides forever (see megacrowd); jitter desynchronizes it.
		Backoff: dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2, Jitter: 0.5},
		Expect: Expect{
			MinAttempts:         2,
			MinEpochFlips:       3,
			NoLostRegistrations: true,
			NoLookupMisses:      true,
			MaxFlipConvergence:  shardRefresh,
		},
	}
}

// reshardDrain runs p2pdir -shards 2 -autoscale's own path: the two
// bootstrap shards are pinned, an early burst of lookups grows the
// registry past them, and once the burst is absorbed the controller
// drains the spawned shards — and only those — while the burst's last
// sessions are still streaming, each drained server outliving its flip
// by the grace period so clients still inside the overlap window read it
// safely. Late requesters boot from the controller's current membership
// after the drains and are never routed to a drained shard (zero failed
// fan-out legs for the whole run).
func reshardDrain() Spec {
	return Spec{
		Name:            "reshard-drain",
		Stresses:        "live scale-in with sessions in flight: a burst grows two pinned shards, the spawned ones drain, late arrivals never touch a drained shard",
		DirectoryShards: 2,
		Autoscale: &Autoscale{
			HighWater: 3,
			LowWater:  1,
			Sustain:   1,
			MaxShards: 4,
		},
		Seeds: []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: append(classOneSeeds("n", 8),
			Peer{ID: "late1", Class: 2, Start: 600 * time.Millisecond}, // arrives after the drains
			Peer{ID: "late2", Class: 1, Start: 680 * time.Millisecond},
		),
		MaxAttempts: 80,
		// The same-instant burst needs jitter to desynchronize its retries
		// (see reshard-flash).
		Backoff: dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2, Jitter: 0.5},
		Expect: Expect{
			MinEpochFlips:       2,
			NoLostRegistrations: true,
			NoLookupMisses:      true,
			NoFailedShardLegs:   true,
		},
	}
}

// lossyLinks puts one requester behind a link that drops 30% of dials and
// loses 15% of chunks: admission treats failed dials as down candidates,
// retransmission keeps the store byte-exact.
func lossyLinks() Spec {
	flaky := netx.LinkConfig{Latency: 300 * time.Microsecond, DropDial: 0.3, Loss: 0.15}
	return Spec{
		Name:     "lossy-links",
		Stresses: "dial drops absorbed by the admission sweep's down path; chunk loss absorbed by retransmission delay",
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "flaky", Class: 1, Start: 0},
			{ID: "n1", Class: 1, Start: 30 * time.Millisecond},
		},
		Links: []Link{
			{A: "flaky", B: Wildcard, Config: flaky},
		},
		Expect: Expect{AllowStalls: true},
	}
}
