// Package scenario is a declarative scenario harness for the live overlay:
// a Spec describes an entire cluster run as data — hosts, per-link
// schedules that change over virtual time, a churn schedule (crash,
// graceful leave, rejoin), and a workload of requesting peers — and Run
// boots the full system (directory + seeds + requesters) on the virtual
// substrate (internal/clock, internal/netx), drives every requester to
// completion, and returns a Report with per-run metrics.Series and
// invariant checks (byte-exact stores, the Theorem 1 delay bound,
// continuous playback, supplier promotion).
//
// The package doubles as the protocol's conformance suite: Catalog holds
// named scenarios in the spirit of the RFC 8867 congestion-control
// evaluation catalog (variable capacity, multiple bottlenecks, RTT
// fairness, flash crowd, churn storm, pause-resume, partition-heal, seed
// starvation, lossy links), each asserted by the tests in this package and
// runnable standalone via cmd/p2pscen. Adding a scenario is ~20 lines of
// Spec, not a hand-built cluster.
package scenario

import (
	"fmt"
	"slices"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
)

// Backend selects a scenario's peer-discovery substrate.
type Backend int

const (
	// BackendDirectory is the default: the centralized directory server.
	BackendDirectory Backend = iota
	// BackendChord runs wire-level chord discovery (internal/chordnet):
	// every supplying peer is a ring member, and no directory server runs
	// at all unless KeepDirectory asks for a decoy.
	BackendChord
)

func (b Backend) String() string {
	switch b {
	case BackendDirectory:
		return "directory"
	case BackendChord:
		return "chord"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a CLI spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	for _, b := range []Backend{BackendDirectory, BackendChord} {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown discovery backend %q (want directory or chord)", s)
}

// Wildcard, as the B side of a Link, means "every other declared host".
const Wildcard = "*"

// Peer declares one overlay peer. Its ID doubles as its virtual host name.
type Peer struct {
	ID    string
	Class bandwidth.Class
	// Start is when (in virtual time from the run start) a requesting
	// peer issues its first request; ignored for seeds, which supply from
	// the start.
	Start time.Duration
	// Priority is the requester's streaming priority: each step doubles
	// the sustain window a supplier waits before stepping this peer's
	// sessions down the bitrate ladder, so under a shared bottleneck the
	// best-effort (priority-0) flows yield capacity first.
	Priority int
	// Objects names the media objects a requester streams, in order
	// (each must be declared in Spec.Objects; empty requests the first
	// catalog object). A sequence longer than the node's cache budget is
	// how a scenario forces evictions. Ignored for seeds.
	Objects []string
	// Held names the objects a seed initially holds and supplies (a
	// subset of Spec.Objects; empty means the whole catalog). Ignored for
	// requesters, which start with nothing.
	Held []string
}

// Link configures the links between host A and host B. B may be Wildcard,
// which expands to every other declared host (including the directory) —
// the idiom for "this host sits behind a slow/lossy/blocked access link".
type Link struct {
	A, B   string
	Config netx.LinkConfig
}

// LinkEvent mutates link configuration at a virtual instant — the
// RFC 8867-style "link schedule". An event whose Link.A is empty replaces
// the network's default link instead of a specific pair.
type LinkEvent struct {
	At   time.Duration
	Link Link
}

// TrafficFlow declares one greedy cross-traffic flow: a long-lived
// TCP-like sender between two dedicated hosts (neither may be a peer)
// that paces to its own delay-based bandwidth estimate with no committed
// ceiling — it ramps until the bottleneck's queue pushes back. Routed
// through a shared Bottleneck link group it is the competing load the
// media flows must share capacity with.
type TrafficFlow struct {
	// From and To name the flow's source and sink hosts. They are declared
	// by the flow itself (fresh virtual hosts); two flows may share them.
	From, To string
	// Start is when the flow begins, in virtual time from the run start.
	Start time.Duration
	// Duration stops the flow after that much sending time; 0 keeps it
	// running until the scenario's workload completes.
	Duration time.Duration
	// Chunk is the bytes per write (default 512).
	Chunk int
	// Rate seeds the flow's bandwidth estimate in bytes/second
	// (default 32 KiB/s). The estimate is uncapped above it.
	Rate int64
}

// ChurnAction is one kind of overlay churn.
type ChurnAction int

const (
	// Crash hard-kills a host at its instant: its listeners close, its
	// connections reset, and it stays in the directory — later admission
	// sweeps exercise the "down candidate" path.
	Crash ChurnAction = iota + 1
	// Leave closes a node gracefully: in-flight work aborts and the node
	// unregisters from the directory.
	Leave
	// Join starts a requesting peer at its instant — the "rejoin at t"
	// half of a churn schedule. The joining ID is either fresh, or the ID
	// of a peer crashed by an earlier event: the host name is revived and
	// a new node rejoins under it with an empty store (the crash lost
	// everything). Between crash and rejoin the peer's stale directory
	// registration lingers, feeding the admission sweep's "down" path;
	// the rejoin retires the crashed instance, clearing the stale entry.
	Join
)

func (a ChurnAction) String() string {
	switch a {
	case Crash:
		return "crash"
	case Leave:
		return "leave"
	case Join:
		return "join"
	}
	return fmt.Sprintf("ChurnAction(%d)", int(a))
}

// ChurnEvent is one entry of the churn schedule.
type ChurnEvent struct {
	At     time.Duration
	Action ChurnAction
	// Node is the peer the action applies to: an existing peer for Crash
	// and Leave, a fresh ID for Join.
	Node string
	// Class is the joining peer's bandwidth class (Join only).
	Class bandwidth.Class
}

// Autoscale turns the sharded registry elastic: the harness deploys it
// through reshard.Deploy, exactly as p2pdir -autoscale does, so the
// deployment samples per-shard load (lookups per interval — the
// one demand signal an epoch flip's own migration traffic cannot inflate)
// on the virtual clock and flips resharding epochs live — growing the
// shard set under sustained load, draining the coldest spawned shard when
// load falls away, and retiring drained servers after a grace period.
// Every node's discovery client watches epoch pushes, migrates its
// registrations to the new owners in one batched round, and double-reads
// candidates from the old and new shard sets for one lease-refresh
// overlap window. Directory backend only. DirectoryShards is the
// bootstrap set (1 starts from the single centralized server): those
// shards are pinned, as p2pdir pins its -shards servers, so they never
// drain and the live count never falls below them. The spec's shard hosts
// extend to MaxShards so every shard the deployment may spawn has its
// virtual host from the start. Incompatible with shard-host churn — the
// autoscale loop owns shard lifecycles.
type Autoscale struct {
	// Interval is the deployment's load-sampling period (default 40ms,
	// the scenario lease-refresh period).
	Interval time.Duration
	// HighWater and LowWater are the mean per-shard load watermarks in
	// lookups per interval: sustained mean load above HighWater adds a
	// shard, below LowWater drains the coldest. HighWater must exceed
	// LowWater (defaults 12 and 2).
	HighWater, LowWater float64
	// Sustain is how many consecutive intervals a watermark must hold
	// before the deployment flips (default 2).
	Sustain int
	// MaxShards caps the live shard count (default: the initial shard
	// count plus 2) and sizes the spec's shard host set. The floor is the
	// initial count: those shards are pinned.
	MaxShards int
	// DrainGrace is how long a drained shard's server outlives its flip
	// before the harness retires it (default 3 lease-refresh periods; it
	// must exceed the clients' one-refresh overlap window, during which
	// they still read the drained shard).
	DrainGrace time.Duration
}

// Expect declares a scenario's acceptance envelope, checked by
// Report.Check on top of the universal invariants.
type Expect struct {
	// MayFail lists requesters allowed to end the run unserved (e.g.
	// peers that crash or leave mid-run). Everyone else must be served.
	MayFail []string
	// MinAttempts, when positive, requires at least one requester to have
	// needed that many admission attempts — the assertion that a
	// contention scenario actually produced contention.
	MinAttempts int
	// AllowStalls drops the continuous-playback invariant: a link with
	// packet loss retransmits instead of corrupting, so stores stay
	// byte-exact, but the retransmission delay spikes can legitimately
	// exceed the Theorem 1 buffering delay and stall playback.
	AllowStalls bool
	// FairShare, when > 0, bounds the throughput disparity across served
	// requesters: the fastest session's goodput divided by the slowest's
	// must not exceed it. The assertion that flows sharing a bottleneck
	// actually converged to comparable shares.
	FairShare float64
	// MinDowngraded, when > 0, requires at least that many served
	// requesters to have received downgraded segments — the assertion that
	// a congestion scenario actually engaged the bitrate ladder.
	MinDowngraded int
	// FullQuality lists requesters that must be served entirely at full
	// quality — the high-priority flows a priority scenario protects.
	FullQuality []string
	// WantCongestion requires the run to have produced visible congestion:
	// at least one playback stall or one bottleneck queue drop. Control
	// runs (NoAdapt) use it to prove the problem adaptation solves exists.
	WantCongestion bool
	// MinEvictions and MinWithdrawals, when > 0, require the run to have
	// produced at least that many cache evictions / graceful supplier
	// withdrawals — the assertion that a cache-churn scenario actually
	// churned its bounded libraries.
	MinEvictions   int
	MinWithdrawals int
	// NoLookupMisses requires that no requester ever came up empty on a
	// candidate lookup — the replicated-churn assertion that a crashed
	// owner's range stayed resolvable through its replicas for the whole
	// run, with no churn window.
	NoLookupMisses bool
	// NoTriggerDials requires that no requester had to dial a chosen
	// supplier to trigger it: a grant keeps the probe's line and the Start
	// rides it, so on a fault-free overlay a trigger that dials is the
	// regression to one connection per trigger — twice the connections per
	// granted supplier — failing here, not only in a benchmark.
	NoTriggerDials bool
	// MinReplicaAnswered, when > 0, requires at least that many lookups to
	// have been answered by a replica rather than the range's owner — the
	// assertion that a replication scenario actually exercised the
	// fail-over path.
	MinReplicaAnswered int
	// MinEpochFlips, when > 0, requires the autoscaling registry to
	// have flipped the resharding epoch at least that many times — the
	// assertion that an elastic scenario actually scaled.
	MinEpochFlips int
	// NoLostRegistrations requires the end-of-run zero-loss audit to
	// pass: every live supplier's registration must be present on the
	// shard that owns its peer ID under the final epoch's ring. The
	// elastic-registry assertion that epoch migration dropped nothing.
	NoLostRegistrations bool
	// MaxFlipConvergence, when > 0, bounds the slowest epoch migration of
	// the run (a ReshardMove's latency from epoch push to the batched
	// re-registration completing) — the reshard-flash assertion that flip
	// convergence beats the lease-refresh period, so elasticity costs
	// less than a passive lease turnover. Requires at least one migration
	// to have run.
	MaxFlipConvergence time.Duration
	// NoFailedShardLegs requires that no candidate fan-out leg failed for
	// the whole run — the scale-in assertion that requesters were never
	// routed to a drained, retired shard.
	NoFailedShardLegs bool
}

// Spec is one declarative scenario. The zero values of the tuning fields
// select the harness defaults (see withDefaults); Seeds and Requesters are
// mandatory.
type Spec struct {
	// Name identifies the scenario in the catalog and CLI.
	Name string
	// Stresses is one line of documentation: what the scenario stresses.
	Stresses string

	// Objects is the overlay's media catalog; empty selects a catalog of
	// one 16-segment default file that keeps whole-cluster runs fast.
	// Every node knows the catalog and every object travels by its name;
	// seeds hold their Peer.Held subset, requesters stream their
	// Peer.Objects sequence, and supplier registration, discovery and
	// admission run independently per object.
	Objects []*media.File
	// CacheBudget bounds every node's media library to that many bytes:
	// caching one more object past the budget evicts the least recently
	// used unpinned object and withdraws its supplier registration
	// gracefully. Zero means unbounded.
	CacheBudget int64
	// SessionSlots caps each node's concurrent supplying sessions across
	// all of its objects — the shared out-bound class budget. Zero selects
	// the single-session default.
	SessionSlots int

	// Seeds supply the file from the start; Requesters arrive per their
	// Start offsets (staggered arrivals, flash crowds, pauses are all
	// just Start patterns).
	Seeds      []Peer
	Requesters []Peer

	// DefaultLink is the link between host pairs without a Links entry;
	// the zero value selects a 300µs/200µs-jitter LAN-ish default.
	DefaultLink netx.LinkConfig
	// Links are static per-pair overrides applied before the run starts.
	Links []Link
	// Events is the link schedule: timed mutations of links or of the
	// default link.
	Events []LinkEvent
	// Churn is the churn schedule.
	Churn []ChurnEvent
	// Traffic is the cross-traffic schedule: greedy long-lived flows
	// competing with the media sessions for link capacity.
	Traffic []TrafficFlow

	// NoAdapt disables the congestion-aware data plane for the whole run:
	// suppliers blast segments on the bare class schedule with no pacing,
	// no bandwidth estimation and no bitrate ladder, and tell requesters to
	// send no acknowledgments. The control knob congestion scenarios use to
	// demonstrate what adaptation buys; population-scale specs set it too,
	// keeping their per-segment message count at the admission-study
	// minimum.
	NoAdapt bool
	// Buffer is extra client-side startup buffering for every requester:
	// playback continuity is verified at Theorem 1's n·δt plus one
	// segment-time plus this. Congestion scenarios set a few segment-times
	// so the queue transient before the bitrate ladder reacts is absorbed
	// by buffer, the way a real ABR player's startup buffer absorbs it.
	Buffer time.Duration

	// Discovery selects the peer-discovery substrate. Under BackendChord
	// no directory server runs: supplying peers form a chord ring and
	// requesters sample candidates by routing random-key lookups.
	Discovery Backend
	// DirectoryShards, when >= 2, splits the directory registry across
	// that many Server instances by consistent hashing (directory.
	// ShardRing): shard i listens on virtual host ShardHost(i), every
	// node discovers through a directory.ShardedClient, and churn events
	// may Crash a shard host mid-run (and Join it back: a reborn shard
	// starts empty and is repopulated by the clients' lease
	// re-registrations). 0 and 1 run the single centralized server.
	// Ignored under BackendChord — a chord overlay runs no directory, and
	// the KeepDirectory decoy stays a single server.
	DirectoryShards int
	// Autoscale, when non-nil, turns the sharded registry elastic: its
	// reshard.Deployment grows and drains the shard set live, flipping
	// resharding epochs that every node's watching client migrates
	// across. See the Autoscale type. Directory backend only.
	Autoscale *Autoscale
	// KeepDirectory, under BackendChord, additionally boots a directory
	// server that nothing queries — so a churn event may crash
	// DirectoryHost mid-run and prove no session depends on it.
	KeepDirectory bool
	// ChordStabilize overrides the chord stabilization period (zero
	// selects the chordnet default).
	ChordStabilize time.Duration
	// ChordReplication replicates every ring member's registration records
	// to that many successors (chordnet.Config.Replication): lookups of a
	// crashed owner's range fail over to the replicas instead of waiting a
	// stabilization round. Zero keeps the unreplicated legacy behavior.
	ChordReplication int
	// ChordVirtualNodes gives every ring member that many virtual
	// registration positions (chordnet.Config.VirtualNodes), flattening the
	// arc-proportional sampling skew. Zero selects the single-position
	// default.
	ChordVirtualNodes int

	// Protocol and workload tuning; zero values select defaults.
	NumClasses  bandwidth.Class   // K (default 4)
	Policy      dac.Policy        // admission policy (default DAC)
	M           int               // candidates per lookup (default 8)
	TOut        time.Duration     // idle elevation timeout (default 40ms)
	Backoff     dac.BackoffConfig // rejection backoff (default 20ms, ×2, no jitter)
	MaxAttempts int               // resilient-request budget (default 60)
	Seed        int64             // network/directory randomness (default 1)
	// ClockCoalesce widens the virtual clock's per-advance coalescing
	// window (clock.Virtual.SetCoalesce). Population-scale specs set it so
	// one quiescent advance drains a whole batch of deliveries instead of
	// paying a grace wait per event instant; zero keeps the clock default.
	ClockCoalesce time.Duration

	Expect Expect
}

// defaultFile keeps whole-cluster runs quick: 16 segments, δt = 4ms.
func defaultFile() *media.File {
	return &media.File{Name: "video", Segments: 16, SegmentBytes: 128, SegmentTime: 4 * time.Millisecond}
}

// withDefaults returns a copy of the spec with every zero tuning field
// replaced by its default.
func (s Spec) withDefaults() Spec {
	if len(s.Objects) == 0 {
		s.Objects = []*media.File{defaultFile()}
	}
	if s.DefaultLink == (netx.LinkConfig{}) {
		s.DefaultLink = netx.LinkConfig{Latency: 300 * time.Microsecond, Jitter: 200 * time.Microsecond}
	}
	if s.NumClasses == 0 {
		s.NumClasses = 4
	}
	if s.M == 0 {
		s.M = 8
	}
	if s.TOut == 0 {
		s.TOut = 40 * time.Millisecond
	}
	if s.Backoff == (dac.BackoffConfig{}) {
		s.Backoff = dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}
	}
	if s.MaxAttempts == 0 {
		s.MaxAttempts = 60
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Autoscale != nil {
		// Copy before defaulting: the caller's Autoscale must not be
		// mutated through the shared pointer. Sustain keeps its zero
		// value, which reshard.Deploy defaults the same way.
		a := *s.Autoscale
		if a.Interval == 0 {
			a.Interval = shardRefresh
		}
		if a.HighWater == 0 {
			a.HighWater = 12
		}
		if a.LowWater == 0 {
			a.LowWater = 2
		}
		if a.MaxShards == 0 {
			a.MaxShards = s.shardCount() + 2
		}
		if a.DrainGrace == 0 {
			a.DrainGrace = 3 * shardRefresh
		}
		s.Autoscale = &a
	}
	if len(s.Traffic) > 0 {
		// Copy before defaulting: withDefaults returns a value, and the
		// caller's slice must not be mutated through the shared backing.
		tf := slices.Clone(s.Traffic)
		for i := range tf {
			if tf[i].Chunk == 0 {
				tf[i].Chunk = 512
			}
			if tf[i].Rate == 0 {
				tf[i].Rate = 32 << 10
			}
		}
		s.Traffic = tf
	}
	return s
}

// objectFile resolves a workload object name to its catalog entry. Nil
// for undeclared names (Validate rejects those up front).
func (s *Spec) objectFile(name string) *media.File {
	for _, f := range s.Objects {
		if f != nil && f.Name == name {
			return f
		}
	}
	return nil
}

// shardCount returns the effective number of directory registry shards:
// DirectoryShards under the directory backend, 1 otherwise (the chord
// backend runs no directory worth sharding).
func (s *Spec) shardCount() int {
	if s.Discovery == BackendChord || s.DirectoryShards < 2 {
		return 1
	}
	return s.DirectoryShards
}

// shardIndex returns the active registry shard the host name denotes, or
// -1 when it is not a shard host of this spec.
func (s *Spec) shardIndex(id string) int {
	return shardHostIndex(id, s.shardCount())
}

// maxShards is the registry's maximum live shard count: the autoscale
// cap when the registry is elastic, the static shard count otherwise.
func (s *Spec) maxShards() int {
	if s.Autoscale != nil && s.Autoscale.MaxShards > s.shardCount() {
		return s.Autoscale.MaxShards
	}
	return s.shardCount()
}

// hosts returns every virtual host of the scenario: the directory shards
// (up to the autoscale cap when the registry is elastic), every peer, and
// every joining peer (a rejoining peer reuses its old host). Shard hosts
// are always included so wildcard link rules — "this peer is partitioned
// from everything" — cover the whole registry.
func (s *Spec) hosts() []string {
	seen := map[string]bool{}
	var out []string
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i := 0; i < s.maxShards(); i++ {
		add(ShardHost(i))
	}
	for _, p := range s.Seeds {
		add(p.ID)
	}
	for _, p := range s.Requesters {
		add(p.ID)
	}
	for _, ev := range s.Churn {
		if ev.Action == Join {
			add(ev.Node)
		}
	}
	for _, tf := range s.Traffic {
		add(tf.From)
		add(tf.To)
	}
	return out
}
