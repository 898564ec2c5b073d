// Package chordnet implements the wire-level Chord discovery backend of
// the live overlay: the decentralized realization of the paper's peer
// lookup (Section 4.2, footnote 4 — "a distributed lookup service such as
// Chord", Stoica et al., SIGCOMM 2001). Where internal/chord models the
// ring in-process for the simulator, chordnet runs it over the overlay's
// real substrate: every supplying peer is a ring member with its own
// listener on an internal/netx network, maintains a successor list,
// predecessor and finger table through periodic stabilization driven by an
// internal/clock, and answers the chord message kinds of
// internal/transport (join, notify, finger-query, key-lookup, leave).
//
// Candidate discovery mirrors the simulator's chordSource: a requesting
// peer samples M candidates by routing lookups of random keys — owners are
// hit proportionally to their arc length, so the sample is the paper's "M
// randomly selected candidate supplying peers" with no directory server
// anywhere. Peers that are not (yet) ring members route their lookups
// through any bootstrap member (KindChordLookup); members walk the ring
// themselves, one finger-query per hop.
//
// A Peer implements the node.Discovery interface: Register joins the ring
// (supplying peers are exactly the members), Unregister leaves it
// gracefully — a chord-leave notice hands the key range to the successor,
// so the ring is whole the instant the leaver goes — and
// Candidates samples. The ring tolerates crashes: a dead member is evicted
// from successor lists and finger tables as soon as an RPC to it fails,
// and stabilization re-splices the ring around it — sessions keep
// completing with zero central components.
package chordnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chord"
	"p2pstream/internal/clock"
	"p2pstream/internal/errs"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

const (
	defaultStabilize = 25 * time.Millisecond
	// successors is the successor-list length: the ring survives that many
	// consecutive simultaneous crashes.
	successors = 4
	// maxHops bounds one lookup walk.
	maxHops = 2 * chord.FingerBits
	// fingersPerRound bounds the finger-repair work of one stabilization
	// round; the full table refreshes every FingerBits/fingersPerRound
	// rounds.
	fingersPerRound = 4
	// sampleRounds bounds Candidates' batched random-key draws: each round
	// issues the missing lookups in parallel, so the virtual-time cost is a
	// few round trips, not 64·M sequential walks.
	sampleRounds = 4
	// joinAttempts retries a join whose routed successor is unreachable
	// (e.g. a stale entry for a crashed peer that stabilization has not yet
	// evicted, or a concurrently launched bootstrap that is not listening
	// yet). Retries back off exponentially from one stabilization period,
	// capped at joinBackoffCap periods: ~1s on the default period, enough
	// for seeds started together to find each other.
	joinAttempts   = 8
	joinBackoffCap = 8
	// rpcTimeout caps one RPC exchange in wall time. It protects live TCP
	// deployments from peers that accept and stall; virtual connections
	// ignore deadlines (virtual time makes them meaningless) and rely on
	// crash-reset semantics instead.
	rpcTimeout = 10 * time.Second
	// maxForwardHops bounds receiver-side forwarding of a registration
	// record that landed at a stale owner mid-flux: each receiver that does
	// not own the record's position re-routes it once toward the true
	// owner, and the hop budget stops ping-pong between peers with
	// momentarily inconsistent range views.
	maxForwardHops = 8
	// resolveAttempts bounds a record resolution: each attempt walks to the
	// key's topological owner and pulls the answering record; a failed pull
	// evicts the corpse, dead-lists it, and re-walks — landing on the
	// successor that holds the replicas.
	resolveAttempts = 3
)

// Config parameterizes a chord discovery peer.
type Config struct {
	// ID is the overlay peer's name; its hash is the ring position.
	ID string
	// Class is the peer's bandwidth class, carried to candidates.
	Class bandwidth.Class
	// Bootstrap lists chord addresses of existing ring members. An empty
	// list founds a new ring at Register; otherwise at least one bootstrap
	// must answer for joins and non-member lookups.
	Bootstrap []string
	// ListenAddr is the chord listener address (default "127.0.0.1:0" on
	// real TCP, any port on a virtual host).
	ListenAddr string
	// Network provides the listener and RPC connections; nil means TCP.
	Network netx.Network
	// Clock schedules stabilization; nil means the wall clock.
	Clock clock.Clock
	// Seed drives random-key sampling.
	Seed int64
	// Stabilize is the stabilization period (default 25ms).
	Stabilize time.Duration
	// Observer, when non-nil, receives the peer's events: reply-path write
	// failures the request/response flow cannot surface (a peer hanging up
	// mid-reply) and completed key lookups with their routing cost.
	Observer observe.Observer
	// Replication is the number of successors each member replicates the
	// registration records of its key range to (0 disables replication).
	// With K replicas a crashed owner's records stay answerable: a lookup
	// whose pull to the owner fails dead-lists it, re-walks, and the
	// successor answers from its replica — the churn window where live
	// suppliers are invisible closes.
	Replication int
	// VirtualNodes is the number of virtual positions this member claims
	// on the identifier circle (default 1: just its ring position).
	// Position i is chord.VirtualPosition(ID, i); each is published as a
	// registration record to the member that owns it, so random-key
	// sampling hits members proportionally to V equalized arcs instead of
	// one arc with a heavy-tailed length.
	VirtualNodes int
}

// Peer is one chord discovery endpoint. Create with New, Start it, then
// use it as the node's Discovery: Register joins the ring, Candidates
// samples supplying peers, Close leaves and shuts down.
type Peer struct {
	cfg  Config
	clk  clock.Clock
	net  netx.Network
	id   uint64
	comp string // observer component name, precomputed off the hot paths
	// ep owns the chord listener, the ring RPC connections in flight and
	// the reply path.
	ep *transport.Endpoint

	// Discovery-cost counters (see LookupStats): key lookups this peer
	// initiated, the routing hops they cost, and Candidates sample rounds.
	lookupCount atomic.Int64
	hopCount    atomic.Int64
	roundCount  atomic.Int64

	// cache pools outbound RPC connections per neighbor: stabilization
	// pings the same successor every tick, and a dial per ping dwarfed the
	// exchange itself at population scale.
	cache *transport.ConnCache

	mu  sync.Mutex
	rng *rand.Rand
	// objects is the set of media objects this peer currently supplies.
	// Ring membership is per peer, not per object: the first Register
	// joins, later ones just grow the set (mirrored, sorted, into
	// self.Objects so contacts carry it), and only withdrawing the last
	// object leaves the ring. Cached contacts elsewhere lag by up to a
	// stabilization round; requesters tolerate that staleness because a
	// probed peer that dropped the object refuses the session and the
	// admission sweep retries.
	objects map[string]bool
	self    transport.ChordContact
	joined  bool
	closed  bool
	pred    *transport.ChordContact
	predID  uint64
	// succIDs and fingerIDs cache the ring position of each stored
	// contact (always in lockstep with succs/fingers), so the routing hot
	// path — closestPrecedingLocked scans the whole finger table per step
	// — never re-hashes contact names.
	succs      []transport.ChordContact
	succIDs    []uint64
	fingers    [chord.FingerBits]transport.ChordContact
	fingerIDs  [chord.FingerBits]uint64
	nextFinger int
	// store holds replicated registration records by virtual position:
	// this member's own records (its pos-0 record is always here — the
	// self-record invariant that makes record answers match topological
	// answers at V=1), the records of its primary key range (predID, id],
	// and replicas pushed by the K predecessors replicating to it.
	store map[uint64]transport.ChordRecord
	// replVer counts store mutations; pushedVer remembers, per successor
	// name, the version last pushed there, so stabilization re-replicates
	// only when something changed (or a fresh successor appears).
	replVer   int64
	pushedVer map[string]int64
	stabTimer clock.Timer
	// wg counts the goroutines the handlers and the timer spawn:
	// stabilization rounds and record forwarding.
	wg sync.WaitGroup
}

// New returns an unstarted chord peer.
func New(cfg Config) (*Peer, error) {
	if cfg.ID == "" {
		return nil, errors.New("chordnet: ID required")
	}
	if !cfg.Class.Valid(bandwidth.MaxClass) {
		return nil, fmt.Errorf("chordnet %s: invalid %v", cfg.ID, cfg.Class)
	}
	if cfg.Stabilize <= 0 {
		cfg.Stabilize = defaultStabilize
	}
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 1
	}
	if cfg.Replication < 0 {
		cfg.Replication = 0
	}
	p := &Peer{
		cfg:     cfg,
		comp:    "chord/" + cfg.ID,
		clk:     clock.Or(cfg.Clock),
		net:     netx.Or(cfg.Network),
		id:      chord.HashKey(cfg.ID),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		objects: make(map[string]bool),
		self:    transport.ChordContact{Name: cfg.ID, Class: cfg.Class},
		store:   make(map[uint64]transport.ChordRecord),
	}
	p.ep = transport.NewEndpoint(p.comp, cfg.Observer)
	p.cache = transport.NewConnCache(p.net)
	return p, nil
}

// Start opens the peer's chord listener and begins answering ring RPCs.
// It does not join a ring; Register does.
func (p *Peer) Start() error {
	if err := p.ep.Start(p.net, p.cfg.ListenAddr, p.handleConn); err != nil {
		return err
	}
	p.mu.Lock()
	p.self.Addr = p.ep.Addr()
	p.mu.Unlock()
	return nil
}

// Addr returns the chord listener address (valid after Start).
func (p *Peer) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self.Addr
}

// Joined reports whether the peer is currently a ring member.
func (p *Peer) Joined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.joined
}

// Successors returns a copy of the successor list, nearest first.
func (p *Peer) Successors() []transport.ChordContact {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]transport.ChordContact(nil), p.succs...)
}

// Predecessor returns a copy of the current predecessor, or nil.
func (p *Peer) Predecessor() *transport.ChordContact {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pred == nil {
		return nil
	}
	c := *p.pred
	return &c
}

// WriteFailures counts reply writes that failed mid-exchange (the remote
// hung up while a response was in flight).
func (p *Peer) WriteFailures() int64 { return p.ep.WriteFailures() }

// LookupStats returns the peer's cumulative discovery-cost counters: key
// lookups it initiated (Candidates draws and explicit LookupKey calls —
// stabilization traffic is excluded), the total routing hops they cost
// (delegated lookups report the hops the routing member expended), and
// the number of Candidates sample rounds executed. The scenario harness
// charts these alongside admission latency.
func (p *Peer) LookupStats() (lookups, hops, sampleRounds int64) {
	return p.lookupCount.Load(), p.hopCount.Load(), p.roundCount.Load()
}

// Register joins the ring as a supplying peer: reg.Addr is the overlay
// (probe/session) address carried to candidates, reg.Object the supplied
// media object ("" for the single-object default). A peer that is already
// a member registers further objects without re-joining — the grown set
// spreads with its contact through the next stabilization round. With no
// bootstrap the peer founds a new singleton ring; otherwise it routes a
// lookup of its own position to find its successor and splices in,
// retrying briefly if the routed successor is a stale entry for a
// crashed peer.
func (p *Peer) Register(ctx context.Context, reg transport.Register) error {
	if reg.ID != p.cfg.ID {
		return fmt.Errorf("chordnet %s: register for foreign id %q", p.cfg.ID, reg.ID)
	}
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return fmt.Errorf("chordnet %s: %w", p.cfg.ID, errs.ErrClosed)
	case p.self.Addr == "":
		p.mu.Unlock()
		return fmt.Errorf("chordnet %s: not started", p.cfg.ID)
	case p.joined:
		if reg.Object != "" && !p.objects[reg.Object] {
			p.objects[reg.Object] = true
			p.refreshObjectsLocked()
			p.mu.Unlock()
			// Re-publish so remote copies of this member's records carry
			// the grown object set (best effort; cached copies lag anyway).
			p.publishRecords(ctx)
			return nil
		}
		p.mu.Unlock()
		return fmt.Errorf("chordnet %s: already joined", p.cfg.ID)
	}
	p.self.NodeAddr = reg.Addr
	p.self.Class = reg.Class
	// Stamp this incarnation: a rejoin (possibly on a new address) carries
	// a strictly higher epoch, so record upserts and candidate merges
	// everywhere prefer this contact over stale copies of the old one.
	p.self.Epoch = p.clk.Now().UnixNano()
	if reg.Object != "" {
		p.objects[reg.Object] = true
		p.refreshObjectsLocked()
	}
	self := p.self
	p.mu.Unlock()

	if len(p.bootstraps()) == 0 {
		p.mu.Lock()
		p.joined = true
		p.pred = nil
		p.setSuccessorsLocked(nil) // the singleton fallback: self
		p.mu.Unlock()
		p.publishRecords(ctx)
		p.armStabilize()
		return nil
	}

	var lastErr error
	for attempt := 0; attempt < joinAttempts; attempt++ {
		if attempt > 0 {
			backoff := p.cfg.Stabilize << (attempt - 1)
			if cap := joinBackoffCap * p.cfg.Stabilize; backoff > cap {
				backoff = cap
			}
			if err := clock.SleepCtx(ctx, p.clk, backoff); err != nil {
				return err
			}
		}
		succ, _, err := p.lookupVia(ctx, p.id, true)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			lastErr = err
			continue
		}
		if succ.Name == p.cfg.ID {
			// A stale entry for a previous incarnation of this peer still
			// owns our position; wait for the ring to evict it.
			lastErr = fmt.Errorf("chordnet %s: ring still names this peer", p.cfg.ID)
			continue
		}
		var reply transport.ChordJoinReply
		err = p.call(ctx, succ.Addr, transport.KindChordJoin, transport.ChordJoin{Peer: self},
			transport.KindChordJoinOK, &reply)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			lastErr = err
			continue
		}
		p.mu.Lock()
		p.joined = true
		p.setSuccessorsLocked(append([]transport.ChordContact{succ}, reply.Successors...))
		// Adopt the successor's pre-adoption predecessor as ours: it is
		// exactly the member preceding us on the ring, which fixes our
		// primary key range (predID, id] immediately — the range sync
		// below and the replica pushes both need it. A stale entry heals
		// through the predecessor pulse like any other corpse.
		if x := reply.Predecessor; x != nil && x.Name != p.cfg.ID {
			c := *x
			p.pred = &c
			p.predID = chord.HashKey(x.Name)
		}
		// Seed every finger with the successor: lookups route correctly
		// (if slowly) from the first instant; stabilization sharpens them.
		for j := range p.fingers {
			p.setFingerLocked(j, succ)
		}
		p.mu.Unlock()
		p.syncRange(ctx, succ)
		p.publishRecords(ctx)
		p.armStabilize()
		return nil
	}
	return fmt.Errorf("chordnet %s: join failed: %w", p.cfg.ID, lastErr)
}

// syncRange pulls the registration records of this peer's primary key
// range from its successor at join time: the successor owned the range
// until this instant, so the records settled there migrate to the new
// owner without waiting for their registrants to re-publish. With no
// known predecessor the range is over-approximated as (succ, self] —
// extra copies are harmless (they can never shadow a nearer record) and
// the owners' replace-pushes garbage-collect them.
func (p *Peer) syncRange(ctx context.Context, succ transport.ChordContact) {
	p.mu.Lock()
	lo := chord.HashKey(succ.Name)
	if p.pred != nil {
		lo = p.predID
	}
	hi := p.id
	p.mu.Unlock()
	if lo == hi {
		return
	}
	var reply transport.ChordReplicaPullReply
	err := p.call(ctx, succ.Addr, transport.KindChordReplicaPull,
		transport.ChordReplicaPull{All: true, Lo: lo, Hi: hi},
		transport.KindChordReplicaPullOK, &reply)
	if err != nil || len(reply.Records) == 0 {
		return
	}
	p.mu.Lock()
	changed := false
	for _, r := range reply.Records {
		if p.upsertLocked(r) {
			changed = true
		}
	}
	if changed {
		p.replVer++
	}
	p.mu.Unlock()
}

// publishRecords installs this member's V virtual-position records in its
// own store (position 0 — the ring position itself — always lives here)
// and routes each remotely-owned record to the member owning its
// position. Best effort: a record whose owner cannot be reached stays
// answerable from the local copy, and receiver-side forwarding plus the
// join-time range sync migrate copies that landed at stale owners.
func (p *Peer) publishRecords(ctx context.Context) {
	p.mu.Lock()
	if !p.joined {
		p.mu.Unlock()
		return
	}
	self := p.self
	recs := make([]transport.ChordRecord, 0, p.cfg.VirtualNodes)
	changed := false
	for i := 0; i < p.cfg.VirtualNodes; i++ {
		r := transport.ChordRecord{Pos: chord.VirtualPosition(p.cfg.ID, i), Peer: self}
		if p.upsertLocked(r) {
			changed = true
		}
		// Positions this member owns itself need no routing: pos 0 is its
		// own ring position, and anything else inside (pred, self] stays
		// in the local store the upsert above just refreshed.
		if r.Pos == p.id || (p.pred != nil && chord.InHalfOpen(r.Pos, p.predID, p.id)) {
			continue
		}
		recs = append(recs, r)
	}
	if changed {
		p.replVer++
	}
	p.mu.Unlock()
	// Route the remotely-owned records in parallel (bounded): V can be
	// large, and each record costs one walk plus one push.
	const publishers = 8
	var wg sync.WaitGroup
	for w := 0; w < publishers && w < len(recs); w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(recs); i += publishers {
				r := recs[i]
				owner, _, err := p.findOwner(ctx, r.Pos)
				if err != nil || owner.Name == p.cfg.ID {
					continue
				}
				var reply transport.ChordReplicateReply
				_ = p.call(ctx, owner.Addr, transport.KindChordReplicate,
					transport.ChordReplicate{Records: []transport.ChordRecord{r}},
					transport.KindChordReplicateOK, &reply)
			}
		}()
	}
	wg.Wait()
}

// Unregister withdraws the peer from one object. While other objects
// remain the peer stays a ring member with a shrunken object set (cached
// contacts lag; probed anyway, it refuses the gone object and the sweep
// retries elsewhere). Withdrawing the last object leaves the ring
// gracefully: the peer hands its key range to its successor with a
// chord-leave notice (the successor adopts the leaver's predecessor, the
// predecessor splices the leaver's successor list in place of the
// leaver), so the ring is whole the instant the notices land — no
// staleness window, no stabilization round, no eviction churn. Neighbors
// that cannot be reached fall back to the crash healing path as before.
func (p *Peer) Unregister(ctx context.Context, id, object string) error {
	if id != p.cfg.ID {
		return fmt.Errorf("chordnet %s: unregister for foreign id %q", p.cfg.ID, id)
	}
	p.mu.Lock()
	if object != "" && p.joined && p.objects[object] && len(p.objects) > 1 {
		delete(p.objects, object)
		p.refreshObjectsLocked()
		p.mu.Unlock()
		// Re-publish so remote copies shrink their object set too.
		p.publishRecords(ctx)
		return nil
	}
	delete(p.objects, object)
	p.refreshObjectsLocked()
	var ownRecs []transport.ChordRecord
	if p.joined {
		for _, r := range p.store {
			if r.Peer.Name == p.cfg.ID {
				ownRecs = append(ownRecs, r)
			}
		}
	}
	p.mu.Unlock()
	// Withdraw this member's own records from the owners of its virtual
	// positions while routing still works (it is still a member); best
	// effort — a missed withdrawal is a stale record whose probe refusal
	// the admission sweep already tolerates, and the owners' replace
	// pushes scrub replicas once the owner's copy is gone.
	if len(ownRecs) > 0 {
		p.withdrawRecords(ctx, ownRecs)
	}
	p.mu.Lock()
	wasJoined := p.joined
	self := p.self
	var pred *transport.ChordContact
	if p.pred != nil {
		c := *p.pred
		pred = &c
	}
	succs := append([]transport.ChordContact(nil), p.succs...)
	// The successor inherits this peer's key range, so the stored records
	// travel with the leave notice (minus this peer's own, just
	// withdrawn; receivers drop leaver-named records regardless).
	var handoff []transport.ChordRecord
	for _, r := range p.store {
		if r.Peer.Name != p.cfg.ID {
			handoff = append(handoff, r)
		}
	}
	p.joined = false
	p.pred = nil
	p.succs, p.succIDs = nil, nil
	p.store = make(map[uint64]transport.ChordRecord)
	p.pushedVer = nil
	t := p.stabTimer
	p.stabTimer = nil
	p.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if !wasJoined {
		return nil
	}
	// Hand over: the same full snapshot goes to both neighbors (each uses
	// the halves that apply), best effort — an unreachable neighbor heals
	// around us like a crash.
	notice := transport.ChordLeave{Peer: self, Predecessor: pred, Successors: succs, Records: handoff}
	var reply transport.ChordLeaveReply
	for _, s := range succs {
		if s.Name == self.Name {
			continue
		}
		if p.call(ctx, s.Addr, transport.KindChordLeave, notice, transport.KindChordLeaveOK, &reply) == nil {
			break // the live successor inherits the key range
		}
	}
	if pred != nil && pred.Name != self.Name && (len(succs) == 0 || pred.Name != succs[0].Name) {
		_ = p.call(ctx, pred.Addr, transport.KindChordLeave, notice, transport.KindChordLeaveOK, &reply)
	}
	// The handover itself is best effort, but a cancelled context must
	// surface: the caller cannot assume the neighbors were notified.
	return ctx.Err()
}

// Candidates samples up to m distinct peers supplying the given object by
// routing lookups of random keys — owners are hit proportionally to arc
// length. Owners whose contact names an object set without the requested
// object are skipped (an empty set means unknown — such contacts pass,
// and the probe's own refusal sorts them out). Each round issues the
// missing draws in parallel; with fewer ring members than m the sample
// simply comes back short, and the admission sweep retries later against
// a grown ring.
func (p *Peer) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	if m <= 0 {
		return nil, nil
	}
	// Contacts merge across rounds by name, newest epoch wins: rounds can
	// surface different copies of the same member (one from before a
	// rejoin, one after), and a probe must never dial an address the
	// member already abandoned. First-seen order is kept so the output is
	// deterministic under a seeded rng.
	index := make(map[string]int)
	var contacts []transport.ChordContact
	eligible := func(c transport.ChordContact) bool {
		if c.NodeAddr == "" {
			return false
		}
		return object == "" || len(c.Objects) == 0 || containsObject(c.Objects, object)
	}
	countEligible := func() int {
		n := 0
		for _, c := range contacts {
			if eligible(c) {
				n++
			}
		}
		return n
	}
	for round := 0; round < sampleRounds && countEligible() < m; round++ {
		p.roundCount.Add(1)
		need := m - countEligible()
		keys := make([]uint64, need)
		p.mu.Lock()
		for i := range keys {
			keys[i] = p.rng.Uint64()
		}
		p.mu.Unlock()
		owners := make([]*transport.ChordContact, need)
		var wg sync.WaitGroup
		for i, key := range keys {
			i, key := i, key
			wg.Add(1)
			go func() {
				defer wg.Done()
				if owner, err := p.lookup(ctx, key); err == nil {
					owners[i] = &owner
				}
			}()
		}
		wg.Wait()
		for _, c := range owners {
			if c == nil || c.Name == "" || c.Name == exclude || c.Name == p.cfg.ID {
				continue
			}
			if i, dup := index[c.Name]; dup {
				if c.Epoch > contacts[i].Epoch {
					contacts[i] = *c
				}
				continue
			}
			index[c.Name] = len(contacts)
			contacts = append(contacts, *c)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	out := make([]transport.Candidate, 0, m)
	for _, c := range contacts {
		if len(out) == m {
			break
		}
		if !eligible(c) {
			continue
		}
		out = append(out, transport.Candidate{ID: c.Name, Addr: c.NodeAddr, Class: c.Class})
	}
	if len(out) == 0 {
		out = nil
	}
	return out, nil
}

// containsObject reports whether the sorted object list names the object.
func containsObject(objects []string, object string) bool {
	i := sort.SearchStrings(objects, object)
	return i < len(objects) && objects[i] == object
}

// refreshObjectsLocked rebuilds self.Objects (sorted, a fresh slice — the
// old one may be shared with in-flight notices) from the object set, and
// refreshes the local copies of this member's own records so record
// answers served from here carry the latest contact immediately.
func (p *Peer) refreshObjectsLocked() {
	if len(p.objects) == 0 {
		p.self.Objects = nil
	} else {
		out := make([]string, 0, len(p.objects))
		for o := range p.objects {
			out = append(out, o)
		}
		sort.Strings(out)
		p.self.Objects = out
	}
	changed := false
	for i := 0; i < p.cfg.VirtualNodes; i++ {
		pos := chord.VirtualPosition(p.cfg.ID, i)
		if r, ok := p.store[pos]; ok && r.Peer.Name == p.cfg.ID {
			if p.upsertLocked(transport.ChordRecord{Pos: pos, Peer: p.self}) {
				changed = true
			}
		}
	}
	if changed {
		p.replVer++
	}
}

// Close leaves the ring and shuts the peer down: stabilization stops, the
// listener closes, and in-flight handler connections are torn down.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.joined = false
	t := p.stabTimer
	p.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	p.cache.Close()
	err := p.ep.Close()
	p.wg.Wait()
	return err
}

// LookupKey routes a full lookup of an arbitrary key and returns the
// owning contact — exported for tests and diagnostics. ctx cancels the
// walk mid-hop.
func (p *Peer) LookupKey(ctx context.Context, key uint64) (transport.ChordContact, error) {
	return p.lookup(ctx, key)
}

// bootstraps returns the configured bootstrap addresses minus the peer's
// own listener (a seed may receive the full seed list, itself included).
func (p *Peer) bootstraps() []string {
	own := p.Addr()
	var out []string
	for _, a := range p.cfg.Bootstrap {
		if a != "" && a != own {
			out = append(out, a)
		}
	}
	return out
}

// lookup routes one key: members resolve the answering record themselves,
// non-members delegate to a bootstrap member (which resolves on their
// behalf). Both paths feed the discovery-cost counters and emit a
// LookupDone event on the observer; a resolution served by a replica
// after the owner proved unreachable additionally emits ReplicaAnswered.
func (p *Peer) lookup(ctx context.Context, key uint64) (transport.ChordContact, error) {
	p.mu.Lock()
	joined := p.joined
	p.mu.Unlock()
	start := p.clk.Now()
	var owner transport.ChordContact
	var hops int
	var viaReplica bool
	var err error
	if joined {
		owner, hops, viaReplica, err = p.resolve(ctx, key)
	} else {
		owner, hops, err = p.lookupVia(ctx, key, false)
	}
	err = transport.CtxErr(ctx, err)
	if err == nil {
		p.lookupCount.Add(1)
		p.hopCount.Add(int64(hops))
		if viaReplica {
			observe.Emit(p.cfg.Observer, observe.Event{
				Component: p.comp,
				Type:      observe.ReplicaAnswered,
				Hops:      hops,
			})
		}
	}
	observe.Emit(p.cfg.Observer, observe.Event{
		Component: p.comp,
		Type:      observe.LookupDone,
		Hops:      hops,
		Latency:   p.clk.Since(start),
		Err:       err,
	})
	return owner, err
}

// lookupVia delegates a key lookup to the first answering bootstrap,
// returning the answer and the hops the routing member expended. topo
// asks for the key's topological owner (the join path); otherwise the
// routing member resolves the answering registration record.
func (p *Peer) lookupVia(ctx context.Context, key uint64, topo bool) (transport.ChordContact, int, error) {
	boots := p.bootstraps()
	if len(boots) == 0 {
		return transport.ChordContact{}, 0, fmt.Errorf("chordnet %s: no bootstrap members", p.cfg.ID)
	}
	var lastErr error
	for _, addr := range boots {
		var reply transport.ChordLookupReply
		err := p.call(ctx, addr, transport.KindChordLookup, transport.ChordLookup{Key: key, Topo: topo},
			transport.KindChordLookupOK, &reply)
		if err == nil {
			return reply.Owner, reply.Hops, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return transport.ChordContact{}, 0, cerr
		}
		lastErr = err
	}
	return transport.ChordContact{}, 0, fmt.Errorf("chordnet %s: no bootstrap answered: %w", p.cfg.ID, lastErr)
}

// resolve answers a key lookup from registration records: walk to the
// key's topological owner, then pull the best record for the key from it.
// A failed pull means the owner is a corpse the walk still routes to:
// evict it, dead-list it, and fail over to the owner's backups (its
// successors, carried by the walk's final hop) — the replica holders of
// its range — which answer excluding the dead names. The returned flag
// reports a replica-served answer (the owner itself did not produce it);
// the hop count sums the walks.
func (p *Peer) resolve(ctx context.Context, key uint64) (transport.ChordContact, int, bool, error) {
	var dead []string
	deadHas := func(name string) bool {
		for _, d := range dead {
			if d == name {
				return true
			}
		}
		return false
	}
	totalHops := 0
	viaReplica := false
	var lastErr error
	for attempt := 0; attempt < resolveAttempts; attempt++ {
		owner, backups, hops, err := p.findOwnerBackups(ctx, key)
		totalHops += hops
		if err != nil {
			return transport.ChordContact{}, totalHops, false, err
		}
		for _, c := range append([]transport.ChordContact{owner}, backups...) {
			if c.Name == "" || deadHas(c.Name) {
				viaReplica = true
				continue
			}
			// Re-pull the same contact when the record it answered names a
			// member this resolution then observes dead: the grown dead list
			// steers the next pull to the next-best record. Each iteration
			// either returns or dead-lists a name the pull had not filtered,
			// so the loop is bounded by the store; the cap guards against a
			// remote that ignores the dead list.
			for pulls := 0; pulls < 8; pulls++ {
				var rec transport.ChordRecord
				var found bool
				if c.Name == p.cfg.ID {
					p.mu.Lock()
					rec, found = p.bestRecordLocked(key, dead)
					p.mu.Unlock()
				} else {
					var reply transport.ChordReplicaPullReply
					err := p.call(ctx, c.Addr, transport.KindChordReplicaPull,
						transport.ChordReplicaPull{Key: key, Dead: dead},
						transport.KindChordReplicaPullOK, &reply)
					if err != nil {
						if cerr := ctx.Err(); cerr != nil {
							return transport.ChordContact{}, totalHops, false, cerr
						}
						p.evict(c)
						dead = append(dead, c.Name)
						lastErr = err
						viaReplica = true
						break
					}
					rec, found = reply.Record, reply.Found
				}
				if !found {
					// Nothing registered in range (a member mid-join answering
					// before its first publish): the answering member itself
					// is the legacy answer.
					return c, totalHops, viaReplica, nil
				}
				// A third-party answer is verified reachable before it is
				// returned: a replica faithfully answers records of members
				// whose death it has not observed yet, and this resolver may
				// never have tried the corpse itself (its walk can land past
				// the crash when another member already evicted it). The
				// answering member vouches for itself — the pull that just
				// succeeded is the proof — and self needs no proof.
				if rec.Peer.Name != c.Name && rec.Peer.Name != p.cfg.ID && rec.Peer.Addr != "" &&
					!p.contactLive(ctx, rec.Peer) {
					if cerr := ctx.Err(); cerr != nil {
						return transport.ChordContact{}, totalHops, false, cerr
					}
					p.evict(rec.Peer)
					dead = append(dead, rec.Peer.Name)
					lastErr = fmt.Errorf("chordnet %s: record for key %d names unreachable %s", p.cfg.ID, key, rec.Peer.Name)
					viaReplica = true
					continue
				}
				return rec.Peer, totalHops, viaReplica, nil
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("chordnet %s: no live replica answered key %d", p.cfg.ID, key)
	}
	return transport.ChordContact{}, totalHops, false, lastErr
}

// bestRecordLocked returns the stored record owning the key: the one at
// the smallest clockwise distance at-or-after it (the circular-successor
// rule records share with members). Records named in dead are skipped —
// the caller observed those members unreachable this resolution — without
// deleting them: the caller's evidence is not this store's.
func (p *Peer) bestRecordLocked(key uint64, dead []string) (transport.ChordRecord, bool) {
	var best transport.ChordRecord
	var bestDist uint64
	found := false
scan:
	for pos, r := range p.store {
		for _, d := range dead {
			if r.Peer.Name == d {
				continue scan
			}
		}
		dist := pos - key // clockwise distance, wrapping mod 2^64
		if !found || dist < bestDist {
			best, bestDist, found = r, dist, true
		}
	}
	return best, found
}

// contactLive probes a contact with a one-hop finger query — any answered
// RPC is proof of life. Resolve uses it to vet answers that name a member
// other than the one that served them.
func (p *Peer) contactLive(ctx context.Context, c transport.ChordContact) bool {
	var reply transport.ChordFingerReply
	return p.call(ctx, c.Addr, transport.KindChordFingerQuery,
		transport.ChordFingerQuery{Key: chord.HashKey(c.Name)},
		transport.KindChordFingerOK, &reply) == nil
}

// findOwner iteratively routes a key from this member: one finger-query
// per hop, restarting from scratch when a hop is dead (after evicting it,
// so the retry routes around the corpse). The backup list names the
// owner's successors (its replica holders) as the final hop knew them.
func (p *Peer) findOwner(ctx context.Context, key uint64) (transport.ChordContact, int, error) {
	owner, _, hops, err := p.findOwnerBackups(ctx, key)
	return owner, hops, err
}

func (p *Peer) findOwnerBackups(ctx context.Context, key uint64) (transport.ChordContact, []transport.ChordContact, int, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		owner, backups, hops, err := p.walk(ctx, key)
		if err == nil {
			return owner, backups, hops, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return transport.ChordContact{}, nil, 0, cerr
		}
		lastErr = err
	}
	return transport.ChordContact{}, nil, 0, lastErr
}

func (p *Peer) walk(ctx context.Context, key uint64) (transport.ChordContact, []transport.ChordContact, int, error) {
	done, next, backups := p.step(key)
	hops := 0
	for !done {
		hops++
		if hops > maxHops {
			return transport.ChordContact{}, nil, hops, fmt.Errorf("chordnet %s: routing did not converge", p.cfg.ID)
		}
		if next.Name == p.cfg.ID {
			done, next, backups = p.step(key)
			continue
		}
		var reply transport.ChordFingerReply
		err := p.call(ctx, next.Addr, transport.KindChordFingerQuery, transport.ChordFingerQuery{Key: key},
			transport.KindChordFingerOK, &reply)
		if err != nil {
			p.evict(next)
			return transport.ChordContact{}, nil, hops, err
		}
		done, next, backups = reply.Done, reply.Next, reply.Backups
	}
	return next, backups, hops, nil
}

// step performs one local routing step: done when this member's successor
// owns the key (the further successors ride along as the owner's replica
// holders), otherwise the closest preceding contact to continue from.
func (p *Peer) step(key uint64) (bool, transport.ChordContact, []transport.ChordContact) {
	p.mu.Lock()
	defer p.mu.Unlock()
	succ, succID := p.self, p.id
	if len(p.succs) > 0 {
		succ, succID = p.succs[0], p.succIDs[0]
	}
	if succ.Name == p.self.Name || chord.InHalfOpen(key, p.id, succID) {
		return true, succ, p.backupsLocked()
	}
	next := p.closestPrecedingLocked(key)
	if next.Name == p.self.Name {
		return true, succ, p.backupsLocked()
	}
	return false, next, nil
}

// backupsLocked returns the successors behind the head — the replica
// holders of the head successor's range, in fail-over order.
func (p *Peer) backupsLocked() []transport.ChordContact {
	if len(p.succs) < 2 {
		return nil
	}
	return append([]transport.ChordContact(nil), p.succs[1:]...)
}

// closestPrecedingLocked returns the furthest known contact strictly
// between this peer and the key: fingers high to low, then the successor
// list, then self.
func (p *Peer) closestPrecedingLocked(key uint64) transport.ChordContact {
	for j := chord.FingerBits - 1; j >= 0; j-- {
		f := p.fingers[j]
		if f.Name != "" && f.Name != p.self.Name && chord.InOpen(p.fingerIDs[j], p.id, key) {
			return f
		}
	}
	for i := len(p.succs) - 1; i >= 0; i-- {
		s := p.succs[i]
		if s.Name != p.self.Name && chord.InOpen(p.succIDs[i], p.id, key) {
			return s
		}
	}
	return p.self
}

// evict removes a dead contact from the successor list, finger table and
// predecessor slot — healing starts the moment an RPC fails, not at the
// next stabilization tick.
func (p *Peer) evict(c transport.ChordContact) {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept, keptIDs := p.succs[:0], p.succIDs[:0]
	for i, s := range p.succs {
		if s.Name != c.Name {
			kept = append(kept, s)
			keptIDs = append(keptIDs, p.succIDs[i])
		}
	}
	p.succs, p.succIDs = kept, keptIDs
	if len(p.succs) == 0 && p.joined {
		p.succs = []transport.ChordContact{p.self}
		p.succIDs = []uint64{p.id}
	}
	for j := range p.fingers {
		if p.fingers[j].Name == c.Name {
			p.setFingerLocked(j, transport.ChordContact{})
		}
	}
	if p.pred != nil && p.pred.Name == c.Name {
		p.pred = nil
	}
	// A dead member's registration records die with it; dropping them here
	// keeps corpse contacts out of record answers the moment the failure
	// is observed (never this peer's own — an RPC failure proves the
	// remote dead, not us).
	if c.Name != p.cfg.ID {
		dropped := false
		for pos, r := range p.store {
			if r.Peer.Name == c.Name {
				delete(p.store, pos)
				dropped = true
			}
		}
		if dropped {
			p.replVer++
		}
	}
}

// upsertLocked merges one record into the store: a record loses to a
// stored copy with a newer epoch (a later incarnation of the member) and
// a byte-identical copy is a no-op — critical, because replica pushes
// re-send unchanged records and a no-op must not count as a store
// mutation (a version bump here would re-trigger pushes ring-wide,
// forever). Reports whether the store changed.
func (p *Peer) upsertLocked(rec transport.ChordRecord) bool {
	if rec.Peer.Name == "" {
		return false
	}
	old, ok := p.store[rec.Pos]
	if ok {
		if old.Peer.Epoch > rec.Peer.Epoch {
			return false
		}
		if contactsEqual(old.Peer, rec.Peer) {
			return false
		}
	}
	p.store[rec.Pos] = rec
	return true
}

// contactsEqual compares contacts field by field (ChordContact carries a
// slice, so == does not apply).
func contactsEqual(a, b transport.ChordContact) bool {
	if a.Name != b.Name || a.Addr != b.Addr || a.NodeAddr != b.NodeAddr ||
		a.Class != b.Class || a.Epoch != b.Epoch || len(a.Objects) != len(b.Objects) {
		return false
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			return false
		}
	}
	return true
}

// withdrawRecords deletes this member's own records from the owners of
// its virtual positions (the record-level counterpart of a graceful
// leave). Best effort; locally-owned positions are cleared by the
// caller's store reset.
func (p *Peer) withdrawRecords(ctx context.Context, recs []transport.ChordRecord) {
	for _, r := range recs {
		owner, _, err := p.findOwner(ctx, r.Pos)
		if err != nil || owner.Name == p.cfg.ID {
			continue
		}
		var reply transport.ChordReplicateReply
		_ = p.call(ctx, owner.Addr, transport.KindChordReplicate,
			transport.ChordReplicate{Withdraw: true, Records: []transport.ChordRecord{r}},
			transport.KindChordReplicateOK, &reply)
	}
}

// forwardRecords re-routes records that landed here although another
// member owns their positions (registration mid-flux: the publisher's
// walk answered a stale owner). Runs on a tracked goroutine — the walk to
// the true owner must not stall the RPC handler that received the push.
func (p *Peer) forwardRecords(recs []transport.ChordRecord, hops int) {
	p.mu.Lock()
	if p.closed || !p.joined {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		for _, r := range recs {
			owner, _, err := p.findOwner(context.Background(), r.Pos)
			if err != nil || owner.Name == p.cfg.ID {
				continue
			}
			var reply transport.ChordReplicateReply
			_ = p.call(context.Background(), owner.Addr, transport.KindChordReplicate,
				transport.ChordReplicate{Records: []transport.ChordRecord{r}, Hops: hops},
				transport.KindChordReplicateOK, &reply)
		}
	}()
}

// applyReplicate is the chord-replicate handler body: withdrawal deletes
// the named member's records, a replace push mirrors the sender's
// authoritative view of its primary range, and a plain push upserts —
// forwarding (once, hop-bounded) any record this member does not own, so
// registrations that raced a ring change still settle at the true owner.
func (p *Peer) applyReplicate(req transport.ChordReplicate) {
	p.mu.Lock()
	changed := false
	var fwd []transport.ChordRecord
	switch {
	case req.Withdraw:
		for _, r := range req.Records {
			if r.Peer.Name == p.cfg.ID {
				continue // never drop own registration on hearsay
			}
			if old, ok := p.store[r.Pos]; ok && old.Peer.Name == r.Peer.Name && old.Peer.Epoch <= r.Peer.Epoch {
				delete(p.store, r.Pos)
				changed = true
			}
		}
	case req.Replace:
		pushed := make(map[uint64]bool, len(req.Records))
		for _, r := range req.Records {
			pushed[r.Pos] = true
		}
		for pos, old := range p.store {
			if !pushed[pos] && old.Peer.Name != p.cfg.ID && chord.InHalfOpen(pos, req.Lo, req.Hi) {
				delete(p.store, pos)
				changed = true
			}
		}
		for _, r := range req.Records {
			if p.upsertLocked(r) {
				changed = true
			}
		}
	default:
		for _, r := range req.Records {
			if p.upsertLocked(r) {
				changed = true
			}
			if r.Peer.Name != p.cfg.ID && r.Pos != p.id &&
				p.pred != nil && !chord.InHalfOpen(r.Pos, p.predID, p.id) {
				fwd = append(fwd, r)
			}
		}
	}
	if changed {
		p.replVer++
	}
	p.mu.Unlock()
	if len(fwd) > 0 && req.Hops < maxForwardHops {
		p.forwardRecords(fwd, req.Hops+1)
	}
}

// pushReplicas replicates this member's primary key range (predID, id] to
// its first K live successors, version-gated: a successor is pushed only
// when the store changed since it was last pushed (or it is new to the
// list). Without a known predecessor the range is undefined — pushing
// would name the whole circle — so the push waits for the next notify to
// establish one.
func (p *Peer) pushReplicas() {
	p.mu.Lock()
	k := p.cfg.Replication
	if k <= 0 || !p.joined || p.pred == nil {
		p.mu.Unlock()
		return
	}
	lo, hi := p.predID, p.id
	ver := p.replVer
	var prims []transport.ChordRecord
	for pos, r := range p.store {
		if chord.InHalfOpen(pos, lo, hi) {
			prims = append(prims, r)
		}
	}
	if p.pushedVer == nil {
		p.pushedVer = make(map[string]int64)
	}
	live := make(map[string]bool, k)
	var targets []transport.ChordContact
	for _, s := range p.succs {
		if s.Name == p.cfg.ID {
			continue
		}
		if len(live) >= k {
			break
		}
		live[s.Name] = true
		if p.pushedVer[s.Name] < ver {
			targets = append(targets, s)
		}
	}
	for name := range p.pushedVer {
		if !live[name] {
			delete(p.pushedVer, name)
		}
	}
	p.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	req := transport.ChordReplicate{Replace: true, Lo: lo, Hi: hi, Records: prims}
	for _, s := range targets {
		var reply transport.ChordReplicateReply
		if err := p.call(context.Background(), s.Addr, transport.KindChordReplicate, req,
			transport.KindChordReplicateOK, &reply); err != nil {
			p.evict(s)
			continue
		}
		p.mu.Lock()
		if p.pushedVer != nil && p.pushedVer[s.Name] < ver {
			p.pushedVer[s.Name] = ver
		}
		p.mu.Unlock()
	}
}

// setSuccessorsLocked installs a successor list: deduplicated by name,
// self dropped (unless the list would empty, the singleton case), and
// truncated to the configured length.
func (p *Peer) setSuccessorsLocked(list []transport.ChordContact) {
	seen := make(map[string]bool, len(list))
	out := make([]transport.ChordContact, 0, successors)
	ids := make([]uint64, 0, successors)
	for _, c := range list {
		if c.Name == "" || c.Name == p.self.Name || seen[c.Name] {
			continue
		}
		seen[c.Name] = true
		out = append(out, c)
		ids = append(ids, chord.HashKey(c.Name))
		if len(out) == successors {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, p.self)
		ids = append(ids, p.id)
	}
	p.succs, p.succIDs = out, ids
}

// setFingerLocked installs one finger with its ring position cached; an
// empty contact clears the slot.
func (p *Peer) setFingerLocked(j int, c transport.ChordContact) {
	p.fingers[j] = c
	if c.Name == "" {
		p.fingerIDs[j] = 0
		return
	}
	p.fingerIDs[j] = chord.HashKey(c.Name)
}

func (p *Peer) setSuccessors(list []transport.ChordContact) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setSuccessorsLocked(list)
}

// armStabilize schedules the next stabilization round. The round itself
// runs on a fresh goroutine: clock callbacks must never block, and a round
// blocks on RPC round trips.
func (p *Peer) armStabilize() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !p.joined {
		return
	}
	p.stabTimer = p.clk.AfterFunc(p.cfg.Stabilize, func() {
		p.mu.Lock()
		if p.closed || !p.joined {
			p.mu.Unlock()
			return
		}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.stabilizeOnce()
			p.armStabilize()
		}()
	})
}

// stabilizeOnce runs one maintenance round: verify (or advance past) the
// successor, exchange notifies, check the predecessor's pulse, and repair
// a few fingers.
func (p *Peer) stabilizeOnce() {
	p.mu.Lock()
	if p.closed || !p.joined {
		p.mu.Unlock()
		return
	}
	self := p.self
	succs := append([]transport.ChordContact(nil), p.succs...)
	var pred *transport.ChordContact
	if p.pred != nil {
		c := *p.pred
		pred = &c
	}
	p.mu.Unlock()

	advanced := false
	for _, s := range succs {
		if s.Name == self.Name {
			// Singleton (or collapsed) ring: the only way to grow back is
			// through a predecessor that has adopted us.
			if pred != nil && pred.Name != self.Name {
				p.setSuccessors([]transport.ChordContact{*pred})
			}
			advanced = true
			break
		}
		var reply transport.ChordNotifyReply
		err := p.call(context.Background(), s.Addr, transport.KindChordNotify, transport.ChordNotify{Peer: self},
			transport.KindChordNotifyOK, &reply)
		if err != nil {
			p.evict(s)
			continue
		}
		list := make([]transport.ChordContact, 0, 2+len(reply.Successors))
		if x := reply.Predecessor; x != nil && x.Name != self.Name && x.Name != s.Name &&
			chord.InOpen(chord.HashKey(x.Name), chord.HashKey(self.Name), chord.HashKey(s.Name)) {
			// A closer successor surfaced between us; adopt it first (the
			// next round notifies it and verifies its pulse).
			list = append(list, *x)
		}
		if reply.Self != nil && reply.Self.Name == s.Name {
			// The successor answered with its fresh contact: replace our
			// stored entry, so a post-join change (a grown object set)
			// reaches the routing answers we serve for it.
			s = *reply.Self
		}
		list = append(list, s)
		list = append(list, reply.Successors...)
		p.setSuccessors(list)
		advanced = true
		break
	}
	if !advanced {
		// Every listed successor is dead. Fall back to the predecessor if
		// we have one, else collapse to a singleton and wait to be found.
		if pred != nil && pred.Name != self.Name {
			p.setSuccessors([]transport.ChordContact{*pred})
		} else {
			p.setSuccessors([]transport.ChordContact{self})
		}
	}

	if pred != nil && pred.Name != self.Name {
		var reply transport.ChordFingerReply
		err := p.call(context.Background(), pred.Addr, transport.KindChordFingerQuery, transport.ChordFingerQuery{Key: p.id},
			transport.KindChordFingerOK, &reply)
		if err != nil {
			// The predecessor is dead: evict it everywhere (successor
			// list, fingers, predecessor slot, and its stored records —
			// this member inherits its arc, and the corpse's records must
			// not be answered from here).
			p.evict(*pred)
		}
	}

	// Replicate this member's primary range to its K successors (no-op
	// when nothing changed since the last push).
	p.pushReplicas()

	for k := 0; k < fingersPerRound; k++ {
		p.mu.Lock()
		if p.closed || !p.joined {
			p.mu.Unlock()
			return
		}
		j := p.nextFinger
		p.nextFinger = (p.nextFinger + 1) % chord.FingerBits
		p.mu.Unlock()
		owner, _, err := p.findOwner(context.Background(), chord.FingerTarget(p.id, j))
		p.mu.Lock()
		if err != nil {
			p.setFingerLocked(j, transport.ChordContact{})
		} else {
			p.setFingerLocked(j, owner)
		}
		p.mu.Unlock()
	}
}

// handleConn answers ring RPC exchanges on one connection until the caller
// hangs up or stalls past the per-exchange deadline. Non-members refuse —
// with an error frame over the still-synchronized stream, so a neighbor's
// pooled connection survives the refusal and they treat the departed peer
// as gone and heal around it. Malformed frames close the connection.
func (p *Peer) handleConn(conn net.Conn) {
	for {
		p.ep.Arm(conn)
		env, err := transport.Read(conn)
		if err != nil {
			return
		}
		p.mu.Lock()
		joined := p.joined
		p.mu.Unlock()
		if !joined {
			p.ep.Reply(conn, transport.KindError,
				transport.Error{Message: fmt.Sprintf("chordnet %s: not a ring member", p.cfg.ID)})
			continue
		}
		switch env.Kind {
		case transport.KindChordFingerQuery:
			var req transport.ChordFingerQuery
			if err := env.Decode(&req); err != nil {
				return
			}
			done, next, backups := p.step(req.Key)
			p.ep.Reply(conn, transport.KindChordFingerOK, transport.ChordFingerReply{Done: done, Next: next, Backups: backups})
		case transport.KindChordLookup:
			var req transport.ChordLookup
			if err := env.Decode(&req); err != nil {
				return
			}
			var owner transport.ChordContact
			var hops int
			var err error
			if req.Topo {
				owner, hops, err = p.findOwner(context.Background(), req.Key)
			} else {
				var viaReplica bool
				owner, hops, viaReplica, err = p.resolve(context.Background(), req.Key)
				if err == nil && viaReplica {
					// The delegating caller is not a member; this routing
					// member's observer carries the event.
					observe.Emit(p.cfg.Observer, observe.Event{
						Component: p.comp,
						Type:      observe.ReplicaAnswered,
						Hops:      hops,
					})
				}
			}
			if err != nil {
				p.ep.Reply(conn, transport.KindError, transport.Error{Message: err.Error()})
				continue
			}
			p.ep.Reply(conn, transport.KindChordLookupOK, transport.ChordLookupReply{Owner: owner, Hops: hops})
		case transport.KindChordReplicate:
			var req transport.ChordReplicate
			if err := env.Decode(&req); err != nil {
				return
			}
			p.applyReplicate(req)
			p.ep.Reply(conn, transport.KindChordReplicateOK, transport.ChordReplicateReply{})
		case transport.KindChordReplicaPull:
			var req transport.ChordReplicaPull
			if err := env.Decode(&req); err != nil {
				return
			}
			var rep transport.ChordReplicaPullReply
			p.mu.Lock()
			if req.All {
				for pos, r := range p.store {
					if chord.InHalfOpen(pos, req.Lo, req.Hi) {
						rep.Records = append(rep.Records, r)
					}
				}
			} else {
				rep.Record, rep.Found = p.bestRecordLocked(req.Key, req.Dead)
			}
			p.mu.Unlock()
			p.ep.Reply(conn, transport.KindChordReplicaPullOK, rep)
		case transport.KindChordJoin:
			var req transport.ChordJoin
			if err := env.Decode(&req); err != nil {
				return
			}
			rep := p.adopt(req.Peer)
			p.ep.Reply(conn, transport.KindChordJoinOK,
				transport.ChordJoinReply{Predecessor: rep.Predecessor, Successors: rep.Successors})
		case transport.KindChordNotify:
			var req transport.ChordNotify
			if err := env.Decode(&req); err != nil {
				return
			}
			p.ep.Reply(conn, transport.KindChordNotifyOK, p.adopt(req.Peer))
		case transport.KindChordLeave:
			var req transport.ChordLeave
			if err := env.Decode(&req); err != nil {
				return
			}
			p.spliceLeave(req)
			p.ep.Reply(conn, transport.KindChordLeaveOK, transport.ChordLeaveReply{})
		default:
			p.ep.Reply(conn, transport.KindError,
				transport.Error{Message: fmt.Sprintf("chordnet %s: unexpected %s", p.cfg.ID, env.Kind)})
			return
		}
	}
}

// adopt is the shared join/notify handling: take the sender as predecessor
// when it lies between the current predecessor and us (or refreshes the
// same name), and return the pre-adoption predecessor plus our successor
// list.
func (p *Peer) adopt(from transport.ChordContact) transport.ChordNotifyReply {
	p.mu.Lock()
	defer p.mu.Unlock()
	var prev *transport.ChordContact
	if p.pred != nil {
		c := *p.pred
		prev = &c
	}
	if from.Name != "" && from.Name != p.self.Name {
		fromID := chord.HashKey(from.Name)
		if p.pred == nil || p.pred.Name == from.Name ||
			chord.InOpen(fromID, p.predID, p.id) {
			c := from
			p.pred = &c
			p.predID = fromID
		}
	}
	me := p.self
	return transport.ChordNotifyReply{
		Predecessor: prev,
		Successors:  append([]transport.ChordContact(nil), p.succs...),
		Self:        &me,
	}
}

// spliceLeave applies a neighbor's graceful-departure notice: adopt its
// predecessor if the leaver was ours (the key-range handover — we own its
// arc from this instant), splice its successor list in place of the
// leaver in ours, and repoint fingers at its inheritor. The ring is whole
// immediately; nothing waits for stabilization.
func (p *Peer) spliceLeave(req transport.ChordLeave) {
	leaver := req.Peer.Name
	if leaver == "" || leaver == p.self.Name {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	wasPred := p.pred != nil && p.pred.Name == leaver
	if wasPred {
		if x := req.Predecessor; x != nil && x.Name != leaver && x.Name != p.self.Name {
			c := *x
			p.pred = &c
			p.predID = chord.HashKey(x.Name)
		} else {
			p.pred = nil
		}
	}
	// Record handover: the leaver's records travel with the notice. The
	// successor (the peer whose predecessor the leaver was) inherits the
	// arc, so it adopts them; any records naming the leaver itself are
	// dropped everywhere — it just withdrew.
	changed := false
	if wasPred {
		for _, r := range req.Records {
			if r.Peer.Name == leaver {
				continue
			}
			if p.upsertLocked(r) {
				changed = true
			}
		}
	}
	for pos, r := range p.store {
		if r.Peer.Name == leaver {
			delete(p.store, pos)
			changed = true
		}
	}
	if changed {
		p.replVer++
	}
	inSuccs := false
	for _, s := range p.succs {
		if s.Name == leaver {
			inSuccs = true
			break
		}
	}
	if inSuccs {
		merged := make([]transport.ChordContact, 0, len(p.succs)+len(req.Successors))
		for _, s := range p.succs {
			if s.Name != leaver {
				merged = append(merged, s)
			}
		}
		for _, s := range req.Successors {
			if s.Name != leaver {
				merged = append(merged, s)
			}
		}
		// Nearest-first by clockwise distance from this peer, so the head
		// of the rebuilt list is the true next ring neighbor.
		sort.Slice(merged, func(i, j int) bool {
			return chord.HashKey(merged[i].Name)-p.id < chord.HashKey(merged[j].Name)-p.id
		})
		p.setSuccessorsLocked(merged)
	}
	var inheritor transport.ChordContact
	if len(req.Successors) > 0 && req.Successors[0].Name != p.self.Name {
		inheritor = req.Successors[0]
	}
	for j := range p.fingers {
		if p.fingers[j].Name == leaver {
			p.setFingerLocked(j, inheritor) // the empty contact clears
		}
	}
}

// call performs one outbound RPC exchange, bounded by ctx and — always,
// even under a caller deadline — by the wall-clock rpcTimeout, so one
// black-holed member stalls a walk for at most 10s regardless of how far
// away the caller's own deadline is. A parent cancellation or earlier
// parent deadline still propagates through the derived context.
func (p *Peer) call(ctx context.Context, addr string, kind transport.Kind, req any, want transport.Kind, out any) error {
	if addr == "" {
		return fmt.Errorf("chordnet %s: empty contact address", p.cfg.ID)
	}
	rctx, cancel := clock.ContextWithTimeout(ctx, clock.System(), rpcTimeout)
	defer cancel()
	err := p.cache.Call(rctx, addr, kind, req, want, out)
	// The per-RPC cap is an internal liveness bound, not the caller's
	// cancellation: report the caller's own error only when it fired.
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}
