package p2pstream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"p2pstream/internal/chordnet"
	"p2pstream/internal/errs"
	"p2pstream/internal/media"
	"p2pstream/internal/node"
	"p2pstream/internal/observe"
	"p2pstream/internal/wiring"
)

// Overlay is the single entrypoint to the live streaming overlay: one
// builder that wires nodes, discovery and lifecycle for all three
// discovery backends — the centralized directory (WithDirectory, one
// address), the consistent-hash sharded directory (WithDirectory with
// several addresses, or WithShardedDirectory for full control; elastic
// under a resharding controller via WithAutoscale or the config's
// WatchEpochs) and
// the decentralized wire-level Chord ring (WithChord) — behind one type.
//
//	ov, err := p2pstream.NewOverlay(file,
//		p2pstream.WithDirectory("127.0.0.1:7000"),
//	)
//	defer ov.Close()
//	seed, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: "s1", Class: 1})
//	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r1", Class: 2})
//	report, err := req.RequestUntilAdmitted(ctx, "", 10)
//
// Every peer the overlay creates is started, tracked, and torn down by
// Close (newest first: requesters before the seeds they stream from).
// The request path is context-first throughout — cancellation and
// deadlines abort dials, probes, sessions and discovery RPCs — and
// failures are typed: branch with errors.Is on ErrRejected,
// ErrNoSuppliers, ErrClosed, ErrAllShardsDown.
//
// WithClock and WithNetwork (or WithNetworkFor, for per-host virtual
// networks) swap the substrate: the same overlay runs over real TCP on
// the wall clock or inside a deterministic virtual cluster. WithObserver
// installs one unified observer across every component the overlay wires.
type Overlay struct {
	cfg *overlayConfig

	mu         sync.Mutex
	nodes      []*Node
	chordAddrs map[string]string // chord endpoint per created peer ID
	seq        int64
	closed     bool
}

// overlayConfig is what the options write: the peer builder's node template
// and discovery backend directly, plus the few settings that are resolved
// per peer (network, seed).
type overlayConfig struct {
	wire    wiring.Builder
	network Network
	netFor  func(hostID string) Network
	seed    int64
}

var errBackendTwice = errors.New("p2pstream: overlay discovery backend configured twice")

// hasBackend reports whether a discovery option already selected a backend.
func (c *overlayConfig) hasBackend() bool {
	return c.wire.DirectoryAddr != "" || c.wire.Sharded != nil || c.wire.Chord != nil
}

// OverlayOption configures an Overlay.
type OverlayOption func(*overlayConfig) error

// WithDirectory selects directory discovery: one address runs the
// centralized client, several run the consistent-hash sharded client over
// the listed shards (every peer of one deployment must list the same
// addresses in the same order).
func WithDirectory(addrs ...string) OverlayOption {
	return func(c *overlayConfig) error {
		if c.hasBackend() {
			return errBackendTwice
		}
		switch len(addrs) {
		case 0:
			return errors.New("p2pstream: WithDirectory needs at least one address")
		case 1:
			c.wire.DirectoryAddr = addrs[0]
		default:
			c.wire.Sharded = &ShardedDirectoryConfig{Addrs: append([]string(nil), addrs...)}
		}
		return nil
	}
}

// WithShardedDirectory selects sharded directory discovery with explicit
// lease tuning. The config's Network, Clock, Seed and Observer fields are
// filled per peer from the overlay's; set Addrs (and Refresh, if the
// default lease period does not suit the deployment). Set WatchEpochs to
// follow an elastic deployment managed elsewhere (p2pdir -autoscale, or a
// ReshardController in another process); WithAutoscale implies it.
func WithShardedDirectory(cfg ShardedDirectoryConfig) OverlayOption {
	return func(c *overlayConfig) error {
		if c.hasBackend() {
			return errBackendTwice
		}
		if len(cfg.Addrs) == 0 {
			return errors.New("p2pstream: WithShardedDirectory needs shard addresses")
		}
		c.wire.Sharded = &cfg
		return nil
	}
}

// WithAutoscale attaches a resharding controller (the Controller of an
// elastic DeployDirectory) to the overlay: every peer's sharded directory
// client boots from the controller's live epoch and shard set — not a
// fixed address list — and watches for epoch pushes, migrating its
// registrations as the controller grows and drains the registry. On its
// own it selects the sharded backend; combine with WithShardedDirectory
// only to tune the lease period (the controller overrides its Addrs,
// Names and Epoch per peer). The deployment's lifecycle stays with the
// caller: Close it after the overlay.
func WithAutoscale(ctrl *ReshardController) OverlayOption {
	return func(c *overlayConfig) error {
		if ctrl == nil {
			return errors.New("p2pstream: WithAutoscale needs a non-nil controller")
		}
		c.wire.Autoscale = ctrl
		return nil
	}
}

// WithChord selects decentralized chord discovery. cfg is a template: its
// Bootstrap, ListenAddr, Stabilize, Replication and VirtualNodes apply to
// every peer, while ID, Class, Network, Clock, Seed and Observer are
// filled per peer. Seeds created by this overlay automatically become
// bootstrap members for later peers (the first seed with no bootstrap
// founds the ring), so a single-process cluster needs no explicit
// bootstrap at all.
func WithChord(cfg ChordDiscoveryConfig) OverlayOption {
	return func(c *overlayConfig) error {
		if c.hasBackend() {
			return errBackendTwice
		}
		c.wire.Chord = &cfg
		return nil
	}
}

// WithLibrary selects multi-object mode: the overlay carries the listed
// media objects instead of the single file handed to NewOverlay (which
// must then be nil). Every peer knows the full catalog; which objects a
// peer initially holds is per peer (OverlayPeer.Held — seeds default to
// the whole catalog), and requesters name the object per request
// (Node.Request / Node.RequestUntilAdmitted). Supplier registration,
// candidate discovery and admission run independently per object.
func WithLibrary(files ...*MediaFile) OverlayOption {
	return func(c *overlayConfig) error {
		if len(files) == 0 {
			return errors.New("p2pstream: WithLibrary needs at least one media object")
		}
		c.wire.Node.Objects = append([]*media.File(nil), files...)
		return nil
	}
}

// WithCacheBudget bounds each peer's media library to the given number of
// bytes: when caching one more object would exceed the budget, the least
// recently used unpinned object is evicted and its supplier registration
// withdrawn gracefully (in-flight sessions drain first). Zero means
// unbounded (default).
func WithCacheBudget(bytes int64) OverlayOption {
	return func(c *overlayConfig) error {
		if bytes < 0 {
			return fmt.Errorf("p2pstream: cache budget %d is negative", bytes)
		}
		c.wire.Node.CacheBudget = bytes
		return nil
	}
}

// WithSessionSlots caps how many supplying sessions a peer serves
// concurrently across all of its objects — the peer's single out-bound
// class budget shared by every per-object supplier. Zero means the
// per-class default of one concurrent session (default).
func WithSessionSlots(k int) OverlayOption {
	return func(c *overlayConfig) error {
		if k < 0 {
			return fmt.Errorf("p2pstream: session slots %d is negative", k)
		}
		c.wire.Node.SessionSlots = k
		return nil
	}
}

// WithClock runs every overlay component on clk (default: the wall clock).
func WithClock(clk Clock) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.Clock = clk; return nil }
}

// WithNetwork provides every overlay component's listeners and dials
// (default: real TCP).
func WithNetwork(nw Network) OverlayOption {
	return func(c *overlayConfig) error { c.network = nw; return nil }
}

// WithNetworkFor provides each peer's network by host ID — the idiom for
// virtual clusters, where every peer lives on its own named virtual host:
//
//	p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) })
func WithNetworkFor(f func(hostID string) Network) OverlayOption {
	return func(c *overlayConfig) error { c.netFor = f; return nil }
}

// WithObserver installs one observer across every component the overlay
// wires: nodes (write failures, probes, sessions), sharded directory
// clients (per-shard fan-out legs) and chord peers (lookup cost).
func WithObserver(o Observer) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.Observer = o; return nil }
}

// WithClasses sets K, the number of bandwidth classes (default 4).
func WithClasses(k Class) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.NumClasses = k; return nil }
}

// WithPolicy selects the admission policy (default DAC).
func WithPolicy(p Policy) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.Policy = p; return nil }
}

// WithProbeFanout sets M, the candidates probed per admission attempt
// (default 8).
func WithProbeFanout(m int) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.M = m; return nil }
}

// WithIdleTimeout sets TOut, the supplier idle elevation timeout
// (default 2s).
func WithIdleTimeout(d time.Duration) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.TOut = d; return nil }
}

// WithBackoff sets the requester retry parameters (default 500ms, ×2).
func WithBackoff(b BackoffConfig) OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.Backoff = b; return nil }
}

// WithSeed fixes the overlay's randomness root; per-peer seeds derive from
// it (default 1).
func WithSeed(seed int64) OverlayOption {
	return func(c *overlayConfig) error { c.seed = seed; return nil }
}

// WithoutAdaptation disables the congestion-aware data plane: the overlay's
// peers supply each segment as a single burst on its schedule instead of
// pacing at the bandwidth estimate and stepping down the bitrate ladder
// under sustained congestion, and announce so to their requesters, which
// then send no acks. Useful as an experiment control; on a shared
// bottleneck the unadapted plane builds standing queues and stalls.
func WithoutAdaptation() OverlayOption {
	return func(c *overlayConfig) error { c.wire.Node.NoAdapt = true; return nil }
}

// WithPriority biases the ABR downgrade decision for sessions requested
// by this overlay's peers: each priority level doubles how long congestion
// must sustain before a supplier steps the stream down a bitrate class, so
// higher-priority flows hold quality while best-effort flows yield first
// (default 0).
func WithPriority(p int) OverlayOption {
	return func(c *overlayConfig) error {
		if p < 0 {
			return fmt.Errorf("p2pstream: priority %d is negative", p)
		}
		c.wire.Node.Priority = p
		return nil
	}
}

// WithStartupBuffer adds client-side startup buffering on top of the
// Theorem 1 playback deadline: continuity is verified at n·δt plus one
// segment-time plus this. Sessions expecting congestion set a few
// segment-times so the queue transient before the bitrate ladder reacts
// drains from buffer instead of stalling playback (default 0).
func WithStartupBuffer(d time.Duration) OverlayOption {
	return func(c *overlayConfig) error {
		if d < 0 {
			return fmt.Errorf("p2pstream: startup buffer %v is negative", d)
		}
		c.wire.Node.ExtraBuffer = d
		return nil
	}
}

// NewOverlay builds an overlay for the given media item. Exactly one
// discovery option (WithDirectory, WithShardedDirectory or WithChord) is
// required. For a multi-object overlay, pass a nil file and WithLibrary.
func NewOverlay(file *MediaFile, opts ...OverlayOption) (*Overlay, error) {
	cfg := &overlayConfig{seed: 1}
	cfg.wire.Node = node.Config{
		File:       file,
		NumClasses: 4,
		Policy:     DAC,
		M:          8,
		TOut:       2 * time.Second,
		Backoff:    BackoffConfig{Base: 500 * time.Millisecond, Factor: 2},
	}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	b := &cfg.wire
	if file == nil && len(b.Node.Objects) == 0 {
		return nil, errors.New("p2pstream: overlay needs a media file (or WithLibrary)")
	}
	if file != nil && len(b.Node.Objects) > 0 {
		return nil, errors.New("p2pstream: pass WithLibrary with a nil file, not both")
	}
	if b.Autoscale != nil && !cfg.hasBackend() {
		b.Sharded = &ShardedDirectoryConfig{}
	}
	if !cfg.hasBackend() {
		return nil, errors.New("p2pstream: overlay needs a discovery backend (WithDirectory, WithShardedDirectory, WithAutoscale or WithChord)")
	}
	if b.Autoscale != nil && b.Sharded == nil {
		return nil, errors.New("p2pstream: WithAutoscale needs the sharded directory backend (it selects one when no backend is configured)")
	}
	return &Overlay{cfg: cfg}, nil
}

// OverlayPeer declares one peer of the overlay.
type OverlayPeer struct {
	// ID is the peer's unique overlay name (and, on a virtual network
	// configured with WithNetworkFor, its host name).
	ID string
	// Class is the peer's bandwidth class.
	Class Class
	// ListenAddr is the peer's overlay listener (default "127.0.0.1:0").
	ListenAddr string
	// DiscoveryListenAddr is the peer's chord ring endpoint (chord backend
	// only; default the WithChord template's ListenAddr, else any port).
	DiscoveryListenAddr string
	// Seed overrides the peer's derived randomness seed when non-zero.
	Seed int64
	// Held names the objects a multi-object seed initially holds and
	// supplies (must be a subset of the WithLibrary catalog; empty means
	// the whole catalog). Ignored for requesters and single-file overlays.
	Held []string
}

// Seed creates, starts and tracks a seed peer: it possesses the complete
// media file and registers as a supplying peer immediately (ctx bounds the
// registration). Under chord discovery the peer's ring endpoint becomes a
// bootstrap member for peers created later.
func (o *Overlay) Seed(ctx context.Context, p OverlayPeer) (*Node, error) {
	return o.newPeer(ctx, p, true)
}

// Requester creates, starts and tracks a requesting peer; drive it with
// Request or RequestUntilAdmitted.
func (o *Overlay) Requester(ctx context.Context, p OverlayPeer) (*Node, error) {
	return o.newPeer(ctx, p, false)
}

// Nodes returns the overlay's live tracked peers, in creation order.
func (o *Overlay) Nodes() []*Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*Node(nil), o.nodes...)
}

// DiscoveryEndpoint returns the chord ring endpoint of the named peer —
// the address other processes hand to WithChord as Bootstrap (or p2pnode
// as -chord-bootstrap). Empty under the directory backends or for unknown
// peers.
func (o *Overlay) DiscoveryEndpoint(id string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.chordAddrs[id]
}

// Close tears the whole overlay down: every tracked peer is closed, newest
// first (requesters before the seeds they stream from), each closing its
// own discovery backend with it. Idempotent.
func (o *Overlay) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	nodes := o.nodes
	o.nodes = nil
	o.mu.Unlock()
	var err error
	for i := len(nodes) - 1; i >= 0; i-- {
		if cerr := nodes[i].Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// networkFor resolves one peer's network.
func (o *Overlay) networkFor(id string) Network {
	if o.cfg.netFor != nil {
		return o.cfg.netFor(id)
	}
	return o.cfg.network
}

// nextSeed derives a per-peer randomness seed.
func (o *Overlay) nextSeed(p OverlayPeer) int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	return o.cfg.seed + o.seq*1009
}

// newPeer creates one peer through the builder — discovery endpoint, node,
// start — and tracks it.
func (o *Overlay) newPeer(ctx context.Context, p OverlayPeer, isSeed bool) (*Node, error) {
	o.mu.Lock()
	closed := o.closed
	o.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("p2pstream: overlay %w", errs.ErrClosed)
	}
	if p.ID == "" {
		return nil, errors.New("p2pstream: overlay peer needs an ID")
	}
	n, disc, err := o.cfg.wire.Start(ctx, wiring.Peer{
		ID:                  p.ID,
		Class:               p.Class,
		ListenAddr:          p.ListenAddr,
		DiscoveryListenAddr: p.DiscoveryListenAddr,
		Seed:                o.nextSeed(p),
		Held:                p.Held,
		Priority:            o.cfg.wire.Node.Priority, // per overlay (WithPriority), not per peer
		Network:             o.networkFor(p.ID),
	}, isSeed)
	if err != nil {
		return nil, err
	}

	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		n.Close()
		return nil, fmt.Errorf("p2pstream: overlay %w", errs.ErrClosed)
	}
	o.nodes = append(o.nodes, n)
	if cp, ok := disc.(*chordnet.Peer); ok {
		if o.chordAddrs == nil {
			o.chordAddrs = make(map[string]string)
		}
		o.chordAddrs[p.ID] = cp.Addr()
	}
	o.mu.Unlock()
	return n, nil
}

// The unified observability and error surface.

// Observer receives typed events from every overlay component — write
// failures, lookup cost, per-shard fan-out legs, probes and sessions
// served. Install one with WithObserver (or per component via the internal
// configs). See ObserverEvent.
type Observer = observe.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = observe.Func

// ObserverEvent is one observable occurrence; its Type field discriminates.
type ObserverEvent = observe.Event

// EventType discriminates observer events.
type EventType = observe.Type

// Observer event types.
const (
	// EventWriteError: a reply write failed mid-exchange.
	EventWriteError = observe.WriteError
	// EventLookupDone: a discovery lookup completed (Hops, Latency).
	EventLookupDone = observe.LookupDone
	// EventShardLookup: one shard's leg of a sharded fan-out (Shard,
	// Latency, Err).
	EventShardLookup = observe.ShardLookup
	// EventSessionServed: the supplier side completed one session.
	EventSessionServed = observe.SessionServed
	// EventProbeServed: the supplier side answered one admission probe.
	EventProbeServed = observe.ProbeServed
	// EventBitrateDowngrade: a supplying session stepped one bitrate class
	// down the ladder under sustained congestion (Quality).
	EventBitrateDowngrade = observe.BitrateDowngrade
	// EventObjectEvicted: a node's bounded library evicted one media
	// object (Object).
	EventObjectEvicted = observe.ObjectEvicted
	// EventSupplierWithdrawn: a node withdrew its supplier registration
	// for one object, the graceful tail of an eviction (Object).
	EventSupplierWithdrawn = observe.SupplierWithdrawn
	// EventReplicaAnswered: a chord lookup was answered by a replica after
	// the key's owner proved unreachable — the fail-over path that closes
	// the churn window (Hops). See ChordDiscoveryConfig.Replication.
	EventReplicaAnswered = observe.ReplicaAnswered
	// EventLookupMiss: a node's candidate lookup came back empty — under
	// replication this means the churn window opened.
	EventLookupMiss = observe.LookupMiss
	// EventEpochFlip: the resharding controller flipped the directory
	// deployment to a new epoch (Epoch; Count is the new shard count). See
	// WithAutoscale.
	EventEpochFlip = observe.EpochFlip
	// EventShardAdded: the resharding controller spawned a registry shard
	// under sustained load (Object is the shard's name, Epoch the epoch
	// announcing it).
	EventShardAdded = observe.ShardAdded
	// EventShardDrained: the resharding controller drained the coldest
	// registry shard under sustained underload (Object, Epoch).
	EventShardDrained = observe.ShardDrained
	// EventReshardMove: a sharded client finished migrating its
	// registrations after an epoch flip (Epoch; Count is how many
	// registrations changed owner, Latency the flip convergence time).
	EventReshardMove = observe.ReshardMove
)

// MultiObserver fans events out to several observers (nils skipped).
func MultiObserver(obs ...Observer) Observer { return observe.Multi(obs...) }

// Typed, errors.Is-able failure sentinels of the request/discovery path.
// Every layer wraps these with context; context.Canceled and
// context.DeadlineExceeded pass through cancellation untouched.
var (
	// ErrRejected: the admission attempt failed (retryable with backoff).
	ErrRejected = errs.ErrRejected
	// ErrNoSuppliers: the candidate lookup came back empty (retryable).
	ErrNoSuppliers = errs.ErrNoSuppliers
	// ErrClosed: the component (node, overlay, discovery client, server)
	// is closed.
	ErrClosed = errs.ErrClosed
	// ErrAllShardsDown: every registry shard of a sharded lookup failed.
	ErrAllShardsDown = errs.ErrAllShardsDown
)

// NodeStats is the atomic snapshot returned by Node.Stats.
type NodeStats = node.Stats
