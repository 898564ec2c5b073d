// Package node implements a live peer of the streaming overlay: a single
// process-level object that can act as a requesting peer (probe candidates,
// run the DAC_p2p admission protocol, receive a multi-supplier OTS_p2p
// streaming session, verify continuous playback) and then as a supplying
// peer (serve admission probes, accept reminders, and stream its assigned
// segments at its class's out-bound rate).
//
// The node is a thin driver over the shared session layer in
// internal/protocol: admission decisions, candidate ordering, reminder
// targeting, the supplier lifecycle and the OTS_p2p assignment are the
// same code the discrete-event simulator runs. All timing goes through an
// internal/clock.Clock and all connections through an
// internal/netx.Network, so the very same node runs over real TCP on the
// wall clock or inside a deterministic virtual network under virtual time
// (tests and whole-cluster scenarios in milliseconds). Peers speak the
// internal/transport wire protocol and discover each other through a
// pluggable Discovery backend — the centralized internal/directory server
// or the decentralized internal/chordnet ring — mirroring both discovery
// substrates the paper names (Section 4.2, footnote 4) end to end.
//
// The request path is context-first: Request, RequestUntilAdmitted, Start
// and every Discovery call take a context.Context, and cancellation or
// deadline expiry aborts dials, probes, in-flight sessions and backoff
// waits, surfacing ctx.Err(). Failures are typed (internal/errs): branch
// with errors.Is on ErrRejected, ErrNoSuppliers, ErrClosed.
package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/protocol"
	"p2pstream/internal/splitmix"
	"p2pstream/internal/transport"
)

// Config parameterizes a live node.
type Config struct {
	// ID is the node's unique name.
	ID string
	// Class is the node's bandwidth class (its out-bound offer is R0/2^Class).
	Class bandwidth.Class
	// NumClasses is K, the number of classes in the system.
	NumClasses bandwidth.Class
	// Policy selects DAC_p2p or NDAC_p2p admission behavior when supplying.
	Policy dac.Policy
	// Discovery is the peer-discovery backend (directory client, sharded
	// client or chord ring peer), built, started and handed over by
	// internal/wiring's Builder. The node owns it and closes it on Close.
	// When nil, a directory client for DirectoryAddr is used.
	Discovery Discovery
	// DirectoryAddr is the address of the directory server; required only
	// when Discovery is nil.
	DirectoryAddr string
	// File describes the media item being streamed: a catalog of one,
	// which travels by its name exactly as an Objects entry does. Exactly
	// one of File and Objects must be set.
	File *media.File
	// Objects is the multi-object catalog: every media object this node
	// may hold, supply or request, each with a distinct name. Seeds start
	// holding the objects named by Held (all of them by default);
	// requesters start empty and request objects by name.
	Objects []*media.File
	// Held names the catalog objects a seed starts with. Empty means the
	// whole catalog. Ignored for requesters.
	Held []string
	// CacheBudget bounds the total bytes of completed objects the node
	// holds (0 = unbounded). When an arriving object would overflow the
	// budget, the least-recently-used idle object is evicted and its
	// supplier registration gracefully withdrawn — in-flight sessions
	// drain first, because the library never evicts a pinned object.
	CacheBudget int64
	// SessionSlots is the number of concurrent streaming sessions the node
	// supplies across all its objects (default 1, the paper's single-
	// stream supplier). Each session commits one R0/2^Class slot; a probe
	// arriving while every slot is held is answered DeniedBusy regardless
	// of which object it asks for.
	SessionSlots int
	// Preregistered marks the node's initial supplier registrations as
	// already announced out of band (the scenario harness batch-registers
	// whole seed populations in one exchange), so Start skips the
	// per-object Register round trips. Withdrawals still go to discovery.
	Preregistered bool
	// M is the number of candidates probed per admission attempt.
	M int
	// TOut is the idle elevation timeout of the supplier role.
	TOut time.Duration
	// Backoff holds the requester retry parameters.
	Backoff dac.BackoffConfig
	// ListenAddr is the address to listen on (default "127.0.0.1:0").
	ListenAddr string
	// Seed drives the node's admission randomness.
	Seed int64
	// NoAdapt makes the sessions this node supplies run the fixed schedule
	// with no feedback: each segment goes out whole at its deadline. By
	// default a supplied session paces its bytes to a send-side bandwidth
	// estimate fed by the requester's acknowledgments and steps down the
	// bitrate-class ladder when the estimate sustains below the committed
	// R0/2^c offer. The supplier's StartReply tells the requester which, so
	// it acks exactly when the supplier reads acks, whatever its own NoAdapt.
	NoAdapt bool
	// Priority biases the ABR downgrade decision for sessions this node
	// requests: each step doubles how long the supplier lets the estimate
	// sustain below the committed offer before downgrading, so under
	// shared congestion a high-priority flow holds full quality while
	// best-effort flows step down first. 0 is best effort.
	Priority int
	// ExtraBuffer is additional client-side startup buffering: playback
	// continuity is verified at Theorem 1's n·δt plus one segment-time of
	// scheduling jitter plus this. Zero keeps the bare theoretical bound;
	// sessions expecting congestion set a few segment-times so an ABR
	// transient (the queue built before the ladder steps down) is absorbed
	// by buffer instead of counted as a stall.
	ExtraBuffer time.Duration
	// Clock schedules every sleep, pacing deadline and idle timeout; nil
	// means the real wall clock.
	Clock clock.Clock
	// Network provides the node's listener and outbound connections; nil
	// means real TCP.
	Network netx.Network
	// Observer, when non-nil, receives the node's events: reply-path write
	// failures the request/response flow itself cannot surface, probes
	// answered, sessions supplied. See internal/observe.
	Observer observe.Observer
}

func (c *Config) validate() error {
	switch {
	case c.ID == "":
		return errors.New("node: ID required")
	case !c.Class.Valid(c.NumClasses):
		return fmt.Errorf("node: class %d invalid for K=%d", c.Class, c.NumClasses)
	case c.Discovery == nil && c.DirectoryAddr == "":
		return errors.New("node: discovery backend or directory address required")
	case c.M < 1:
		return fmt.Errorf("node: M=%d, want >= 1", c.M)
	case c.TOut <= 0:
		return errors.New("node: TOut must be > 0")
	}
	if c.SessionSlots < 0 {
		return fmt.Errorf("node: SessionSlots=%d, want >= 0", c.SessionSlots)
	}
	if c.File == nil && len(c.Objects) == 0 {
		return errors.New("node: file or objects required")
	}
	if c.File != nil && len(c.Objects) > 0 {
		return errors.New("node: File and Objects are mutually exclusive")
	}
	catalog := c.catalog()
	if err := media.CheckCatalog(catalog, c.CacheBudget); err != nil {
		return fmt.Errorf("node: %w", err)
	}
	for _, name := range c.Held {
		if !slices.ContainsFunc(catalog, func(f *media.File) bool { return f.Name == name }) {
			return fmt.Errorf("node: held object %q not in catalog", name)
		}
	}
	return c.Backoff.Validate()
}

// catalog returns the node's object set: Objects, or the single File.
func (c *Config) catalog() []*media.File {
	if len(c.Objects) > 0 {
		return c.Objects
	}
	if c.File != nil {
		return []*media.File{c.File}
	}
	return nil
}

// Stats is an atomic snapshot of a node's protocol counters: readers get
// one consistent view (never torn counts), taken under the supplier's
// state lock in a single acquisition.
type Stats struct {
	// Probes counts admission probes served, Sessions streaming sessions
	// supplied, Reminders reminders kept — all zero while the node is
	// still a requesting peer.
	Probes, Sessions, Reminders int
	// Requests counts the admission attempts the node made as a
	// requester: each Request call, and each one RequestUntilAdmitted
	// makes, that got past the context and object checks.
	Requests int
	// WriteFailures counts reply writes that failed mid-exchange (the
	// remote hung up while a reply was in flight).
	WriteFailures int64
}

// Node is a live peer. Create with NewSeed or NewRequester, then Start.
type Node struct {
	cfg  Config
	clk  clock.Clock
	net  netx.Network
	disc Discovery
	comp string // observer component name, precomputed off the hot paths
	// rejected is ErrRejected wrapped with the node's ID, made once: a
	// requester in a crowd is rejected over and over.
	rejected error
	// primary is the object the API's empty name selects: the single
	// File's, or the first catalog entry's.
	primary string
	// files is the catalog by object name.
	files map[string]*media.File
	// lib holds the completed objects the node supplies, bounded by
	// Config.CacheBudget; its eviction callback withdraws the evicted
	// object's supplier registration.
	lib *media.Library
	// slots is the shared outbound session budget across all objects.
	slots *protocol.Slots
	// ep owns the listener, the peer connections in flight and the reply
	// path.
	ep *transport.Endpoint

	mu sync.Mutex
	// sups holds one admission state machine per supplied object (absent
	// until the node supplies that object): vectors, idle elevation and
	// post-session updates are per stream, while the session budget above
	// is per node.
	sups map[string]*protocol.Supplier
	// retired accumulates the protocol counters of suppliers torn down by
	// eviction, so Stats stays monotonic over the node's lifetime.
	retired Stats
	// requests counts admission attempts (Stats.Requests).
	requests int
	// pending holds partially received stores of in-flight requests, by
	// object name; a completed store moves into lib.
	pending map[string]*media.Store
	rng     splitmix.Rand // one word: a crowd seeds ten thousand of these
	closed  bool

	// testHookAdmitted, when non-nil, runs after the admission sweep
	// succeeds and before the session is triggered — the deterministic
	// seam cancellation tests use to land a cancel exactly in the
	// admission-to-session-start window.
	testHookAdmitted func()
	// testHookAck, when non-nil, is called with every Ack a supplied
	// session's ack reader has fed to its pacing.Flow.
	testHookAck func(transport.Ack)
}

// NewSeed creates a node that already possesses its held objects complete
// (all catalog objects by default; Config.Held narrows the set) and
// immediately acts as a supplying peer for each once started.
func NewSeed(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	held := cfg.Held
	if len(held) == 0 {
		for _, f := range cfg.catalog() {
			held = append(held, f.Name)
		}
	}
	for _, name := range held {
		f := n.files[name]
		store, err := media.NewSeededStore(f)
		if err != nil {
			return nil, err
		}
		if err := n.lib.Add(f, store); err != nil {
			return nil, fmt.Errorf("node %s: seeding %s: %w", cfg.ID, name, err)
		}
	}
	return n, nil
}

// NewRequester creates a node holding no objects; it becomes a supplier
// of an object after a successful streaming session for it.
func NewRequester(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newNode(cfg)
}

func newNode(cfg Config) (*Node, error) {
	network := netx.Or(cfg.Network)
	disc := cfg.Discovery
	if disc == nil {
		disc = directory.NewClientOn(network, cfg.DirectoryAddr)
	}
	n := &Node{
		cfg:     cfg,
		comp:    "node/" + cfg.ID,
		clk:     clock.Or(cfg.Clock),
		net:     network,
		disc:    disc,
		files:   make(map[string]*media.File),
		lib:     media.NewLibrary(cfg.CacheBudget),
		slots:   protocol.NewSlots(cfg.SessionSlots),
		sups:    make(map[string]*protocol.Supplier),
		pending: make(map[string]*media.Store),
		rng:     splitmix.Rand(cfg.Seed),
	}
	n.ep = transport.NewEndpoint(n.comp, cfg.Observer)
	n.rejected = fmt.Errorf("node %s: %w", cfg.ID, ErrRejected)
	for i, f := range cfg.catalog() {
		if i == 0 {
			n.primary = f.Name
		}
		n.files[f.Name] = f
	}
	n.lib.SetOnEvict(n.onEvict)
	return n, nil
}

// Start begins listening for peer connections. Seeds also register with
// discovery as supplying peers; ctx bounds that registration.
func (n *Node) Start(ctx context.Context) error {
	if err := n.ep.Start(n.net, n.cfg.ListenAddr, n.handleConn); err != nil {
		return err
	}

	held := n.lib.Names()
	if len(held) == 0 {
		return nil
	}
	// Announce every held object. A batching backend gets the whole set in
	// one exchange; otherwise one Register per object. Preregistered seeds
	// (the harness announced them out of band) only build supplier state.
	if !n.cfg.Preregistered && len(held) > 1 {
		if br, ok := n.disc.(BatchRegistrar); ok {
			regs := make([]transport.Register, 0, len(held))
			for _, name := range held {
				regs = append(regs, transport.Register{
					ID: n.cfg.ID, Addr: n.Addr(), Class: n.cfg.Class, Object: name,
				})
			}
			if err := br.RegisterBatch(ctx, regs); err != nil {
				return fmt.Errorf("node %s: registering: %w", n.cfg.ID, err)
			}
			for _, name := range held {
				if err := n.addSupplier(name); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, name := range held {
		if err := n.becomeSupplier(ctx, name); err != nil {
			return err
		}
	}
	return nil
}

// Addr returns the node's listen address (valid after Start).
func (n *Node) Addr() string { return n.ep.Addr() }

// ID returns the node's name.
func (n *Node) ID() string { return n.cfg.ID }

// Class returns the node's bandwidth class.
func (n *Node) Class() bandwidth.Class { return n.cfg.Class }

// Supplying reports whether the node currently acts as a supplying peer
// for at least one object. A closed node no longer supplies.
func (n *Node) Supplying() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.closed && len(n.sups) > 0
}

// SupplyingObject reports whether the node currently supplies the named
// object.
func (n *Node) SupplyingObject(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.closed && n.sups[name] != nil
}

// Stats returns one consistent snapshot of the node's protocol counters,
// summed across its per-object suppliers — those since evicted included.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	st := n.retired
	st.Requests = n.requests
	sups := make([]*protocol.Supplier, 0, len(n.sups))
	for _, sup := range n.sups {
		sups = append(sups, sup)
	}
	n.mu.Unlock()
	st.WriteFailures = n.ep.WriteFailures()
	for _, sup := range sups {
		st.add(sup)
	}
	return st
}

// add folds one supplier's protocol counters into st.
func (st *Stats) add(sup *protocol.Supplier) {
	p, s, r := sup.Stats()
	st.Probes += p
	st.Sessions += s
	st.Reminders += r
}

// Store exposes the primary object's segment store (read-only use), or
// nil when the node holds nothing — the single-object accessor; use
// StoreOf in multi-object overlays.
func (n *Node) Store() *media.Store { return n.StoreOf(n.primary) }

// StoreOf returns the named object's segment store: the completed copy in
// the node's library, or the partial store of an in-flight request. Nil
// when the node holds neither.
func (n *Node) StoreOf(name string) *media.Store {
	if _, s, ok := n.lib.Get(name); ok {
		return s
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pending[name]
}

// Library exposes the node's bounded object cache (read-only use).
func (n *Node) Library() *media.Library { return n.lib }

// WriteFailures counts reply writes that failed mid-exchange (the remote
// hung up while a reply was in flight). See Config.Observer.
func (n *Node) WriteFailures() int64 { return n.ep.WriteFailures() }

// Close stops the node: it unregisters from discovery (if supplying),
// stops timers, the listener and the discovery backend, and waits for
// connection handlers.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	sups := make(map[string]*protocol.Supplier, len(n.sups))
	for name, sup := range n.sups {
		sups[name] = sup
	}
	n.mu.Unlock()

	for name, sup := range sups {
		sup.Close()
		// Best effort; the discovery backend may already be gone.
		_ = n.disc.Unregister(context.Background(), n.cfg.ID, name)
	}
	// Abort in-flight sessions: a closed node behaves like a crashed peer,
	// which is exactly what the failure tests simulate.
	err := n.ep.Close()
	// The node owns its discovery backend (a chord peer has a listener and
	// a stabilization loop of its own); close it last so the unregister
	// above could still use it.
	if cerr := n.disc.Close(); err == nil {
		err = cerr
	}
	return err
}

// becomeSupplier creates the named object's supplier state machine and
// registers the node as a supplying peer of that object.
func (n *Node) becomeSupplier(ctx context.Context, name string) error {
	if err := n.addSupplier(name); err != nil {
		return err
	}
	if n.cfg.Preregistered {
		return nil
	}
	reg := transport.Register{ID: n.cfg.ID, Addr: n.Addr(), Class: n.cfg.Class, Object: name}
	if err := n.disc.Register(ctx, reg); err != nil {
		return fmt.Errorf("node %s: registering: %w", n.cfg.ID, err)
	}
	return nil
}

// addSupplier installs the per-object admission state machine (which arms
// its idle elevation timer on the node's clock) sharing the node's slot
// budget.
func (n *Node) addSupplier(name string) error {
	sup, err := protocol.NewSupplier(n.cfg.Class, n.cfg.NumClasses, n.cfg.Policy, n.clk, n.cfg.TOut)
	if err != nil {
		return err
	}
	sup.SetSlots(n.slots)
	n.mu.Lock()
	if n.sups[name] != nil {
		n.mu.Unlock()
		sup.Close()
		return fmt.Errorf("node %s: already supplying %s", n.cfg.ID, name)
	}
	n.sups[name] = sup
	n.mu.Unlock()
	return nil
}

// supplier returns the named object's supplier state machine, or nil.
func (n *Node) supplier(name string) *protocol.Supplier {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sups[name]
}

// onEvict is the library's eviction callback: the evicted object's
// supplier is torn down and its registration gracefully withdrawn. The
// library never evicts a pinned object, so every in-flight session of the
// object has already drained; a requester that was just admitted against
// the stale registration gets a refusal on trigger and retries elsewhere.
func (n *Node) onEvict(f *media.File) {
	observe.Emit(n.cfg.Observer, observe.Event{
		Component: n.comp, Type: observe.ObjectEvicted, Object: f.Name,
	})
	n.mu.Lock()
	sup := n.sups[f.Name]
	delete(n.sups, f.Name)
	if sup != nil {
		n.retired.add(sup)
	}
	closed := n.closed
	n.mu.Unlock()
	if sup == nil {
		return
	}
	sup.Close()
	if !closed {
		_ = n.disc.Unregister(context.Background(), n.cfg.ID, f.Name)
	}
	observe.Emit(n.cfg.Observer, observe.Event{
		Component: n.comp, Type: observe.SupplierWithdrawn, Object: f.Name,
	})
}
