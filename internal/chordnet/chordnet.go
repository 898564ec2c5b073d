// Package chordnet implements the wire-level Chord discovery backend of
// the live overlay: the decentralized realization of the paper's peer
// lookup (Section 4.2, footnote 4 — "a distributed lookup service such as
// Chord", Stoica et al., SIGCOMM 2001). Where the simulator's chordSource
// keeps only the ring's sorted positions and takes the owner of a key
// directly, chordnet runs the ring over the overlay's real substrate and
// routes to that owner: every supplying peer is a ring member with its own
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
	"maps"
	"math/rand"
	"slices"
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
//
// Peer is the I/O shell around two pure values, ring and registry: it owns
// the one mutex, the listener, the connection cache, the stabilization
// timer and every blocking RPC loop, and touches the two values only under
// that mutex, never across an RPC.
type Peer struct {
	cfg  Config
	clk  clock.Clock
	net  netx.Network
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
	// ring.self.Objects so contacts carry it), and only withdrawing the
	// last object leaves the ring. Cached contacts elsewhere lag by up to a
	// stabilization round; requesters tolerate that staleness because a
	// probed peer that dropped the object refuses the session and the
	// admission sweep retries.
	objects   map[string]bool
	joined    bool
	closed    bool
	ring      ring
	reg       registry
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
	p := &Peer{
		cfg:     cfg,
		comp:    "chord/" + cfg.ID,
		clk:     clock.Or(cfg.Clock),
		net:     netx.Or(cfg.Network),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		objects: make(map[string]bool),
		ring:    ring{self: memberOf(transport.ChordContact{Name: cfg.ID, Class: cfg.Class})},
		reg:     newRegistry(cfg.ID),
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
	p.ring.self.Addr = p.ep.Addr()
	p.mu.Unlock()
	return nil
}

// Addr returns the chord listener address (valid after Start).
func (p *Peer) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.self.Addr
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
	return contacts(p.ring.succs)
}

// Predecessor returns a copy of the current predecessor, or nil.
func (p *Peer) Predecessor() *transport.ChordContact {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.pred.contact()
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
// (probe/session) address carried to candidates, reg.Object the name of
// the supplied media object, which the member's contact lists from the
// first Register on. A peer that is already a member registers further
// objects without re-joining — the grown set spreads with its contact
// through the next stabilization round. With no bootstrap the peer founds
// a new singleton ring; otherwise it routes a lookup of its own position
// to find its successor and splices in, retrying briefly if the routed
// successor is a stale entry for a crashed peer.
func (p *Peer) Register(ctx context.Context, reg transport.Register) error {
	if reg.ID != p.cfg.ID {
		return fmt.Errorf("chordnet %s: register for foreign id %q", p.cfg.ID, reg.ID)
	}
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return fmt.Errorf("chordnet %s: %w", p.cfg.ID, errs.ErrClosed)
	case p.ring.self.Addr == "":
		p.mu.Unlock()
		return fmt.Errorf("chordnet %s: not started", p.cfg.ID)
	case p.joined:
		if !p.objects[reg.Object] {
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
	p.ring.self.NodeAddr = reg.Addr
	p.ring.self.Class = reg.Class
	// Stamp this incarnation: a rejoin (possibly on a new address) carries
	// a strictly higher epoch, so record upserts and candidate merges
	// everywhere prefer this contact over stale copies of the old one.
	p.ring.self.Epoch = p.clk.Now().UnixNano()
	p.objects[reg.Object] = true
	p.refreshObjectsLocked()
	self := p.ring.self
	p.mu.Unlock()

	if len(p.bootstraps()) == 0 {
		p.mu.Lock()
		p.joined = true
		p.ring.found()
		p.mu.Unlock()
		p.publishRecords(ctx)
		p.armStabilize()
		return nil
	}

	var err error
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
		if err = p.joinVia(ctx, self); err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return fmt.Errorf("chordnet %s: join failed: %w", p.cfg.ID, err)
}

// joinVia is one join attempt: find the successor of this peer's position
// through a bootstrap, ask it to adopt us, splice in, and settle the
// records — the inherited range pulled from the successor, this member's
// own routed to their owners.
func (p *Peer) joinVia(ctx context.Context, self member) error {
	succ, _, err := p.lookupVia(ctx, self.id, true)
	if err != nil {
		return err
	}
	if succ.Name == p.cfg.ID {
		// A stale entry for a previous incarnation of this peer still owns
		// our position; wait for the ring to evict it.
		return fmt.Errorf("chordnet %s: ring still names this peer", p.cfg.ID)
	}
	var reply transport.ChordJoinReply
	err = p.call(ctx, succ.Addr, transport.KindChordJoin, transport.ChordJoin{Peer: self.ChordContact},
		transport.KindChordJoinOK, &reply)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.joined = true
	p.ring.join(succ, reply)
	p.mu.Unlock()
	p.syncRange(ctx, succ)
	p.publishRecords(ctx)
	p.armStabilize()
	return nil
}

// Unregister withdraws the peer from one object. While other objects
// remain the peer stays a ring member with a shrunken object set (cached
// contacts lag; probed anyway, it refuses the gone object and the sweep
// retries elsewhere). Withdrawing the last object leaves the ring
// gracefully: the peer hands its key range to its successor with a
// chord-leave notice (the successor adopts the leaver's predecessor, the
// predecessor splices the leaver's successor list in place of the leaver),
// so the ring is whole the instant the notices land — no staleness window,
// no stabilization round, no eviction churn.
// Neighbors that cannot be reached fall back to the crash healing path as
// before. An object the peer does not supply is nothing to withdraw.
func (p *Peer) Unregister(ctx context.Context, id, object string) error {
	if id != p.cfg.ID {
		return fmt.Errorf("chordnet %s: unregister for foreign id %q", p.cfg.ID, id)
	}
	p.mu.Lock()
	if !p.objects[object] {
		p.mu.Unlock()
		return nil
	}
	delete(p.objects, object)
	p.refreshObjectsLocked()
	if p.joined && len(p.objects) > 0 {
		p.mu.Unlock()
		// Re-publish so remote copies shrink their object set too.
		p.publishRecords(ctx)
		return nil
	}
	var own []transport.ChordRecord
	if p.joined {
		own, _ = p.reg.split()
	}
	p.mu.Unlock()
	// Withdraw this member's own records from the owners of its virtual
	// positions while routing still works (it is still a member); best
	// effort — a missed withdrawal is a stale record whose probe refusal
	// the admission sweep already tolerates, and the owners' replace
	// pushes scrub replicas once the owner's copy is gone.
	p.routeAll(ctx, own, true, 0)
	p.mu.Lock()
	wasJoined := p.joined
	// The successor inherits this peer's key range, so the stored records
	// travel with the leave notice (minus this peer's own, just
	// withdrawn; receivers drop leaver-named records regardless). The same
	// full snapshot goes to both neighbors; each uses the halves that apply.
	notice := transport.ChordLeave{
		Peer:        p.ring.self.ChordContact,
		Predecessor: p.ring.pred.contact(),
		Successors:  contacts(p.ring.succs),
	}
	_, notice.Records = p.reg.split()
	p.joined = false
	p.ring.leave()
	p.reg.reset()
	t := p.stabTimer
	p.stabTimer = nil
	p.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if !wasJoined {
		return nil
	}
	// Hand over, best effort — an unreachable neighbor heals around us like
	// a crash.
	pred, succs := notice.Predecessor, notice.Successors
	var reply transport.ChordLeaveReply
	for _, s := range succs {
		if s.Name == p.cfg.ID {
			continue
		}
		if p.call(ctx, s.Addr, transport.KindChordLeave, notice, transport.KindChordLeaveOK, &reply) == nil {
			break // the live successor inherits the key range
		}
	}
	if pred != nil && pred.Name != p.cfg.ID && (len(succs) == 0 || pred.Name != succs[0].Name) {
		_ = p.call(ctx, pred.Addr, transport.KindChordLeave, notice, transport.KindChordLeaveOK, &reply)
	}
	// The handover itself is best effort, but a cancelled context must
	// surface: the caller cannot assume the neighbors were notified.
	return ctx.Err()
}

// refreshObjectsLocked rebuilds ring.self.Objects (sorted, a fresh slice —
// the old one may be shared with in-flight notices) from the object set,
// and restamps the local copies of this member's own records.
func (p *Peer) refreshObjectsLocked() {
	p.ring.self.Objects = slices.Sorted(maps.Keys(p.objects))
	p.reg.restamp(p.ring.self.ChordContact)
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

// bootstraps returns the configured bootstrap addresses minus the peer's
// own listener (a seed may receive the full seed list, itself included).
func (p *Peer) bootstraps() []string {
	own := p.Addr()
	return slices.DeleteFunc(slices.Clone(p.cfg.Bootstrap), func(a string) bool { return a == "" || a == own })
}

// spawn runs fn on a goroutine Close waits for — unless the peer has left
// the ring or closed, when there is nothing left for it to maintain.
func (p *Peer) spawn(fn func()) {
	p.mu.Lock()
	if p.closed || !p.joined {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		fn()
	}()
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
	// The per-RPC cap is an internal liveness bound, not the caller's
	// cancellation: report the caller's own error only when it fired.
	return transport.CtxErr(ctx, p.cache.Call(rctx, addr, kind, req, want, out))
}
