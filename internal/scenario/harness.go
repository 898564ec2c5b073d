package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/chordnet"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/observe"
	"p2pstream/internal/reshard"
	"p2pstream/internal/splitmix"
	"p2pstream/internal/transport"
	"p2pstream/internal/wiring"
)

// retryDelay is the flat wait of the run's requesters after a transport
// failure.
const retryDelay = 25 * time.Millisecond

// RequestUntilHeld keeps attempting until the node holds the file,
// tolerating both protocol rejections and transport failures such as a
// supplier crashing mid-session — the client loop a churn-prone overlay
// needs. Rejections back off on the paper's T_bkf · E_bkf^(i-1) schedule
// (Section 4.2); transport failures wait the flat retry delay instead,
// since they say nothing about admission contention. When jitter > 0 and
// uniform is non-nil, each rejection wait is scaled by a uniform factor in
// [1-jitter, 1+jitter): the paper's deterministic schedule keeps a
// same-instant flash crowd in lockstep forever (every cohort re-collides
// at every wake), and jitter is what desynchronizes it. It returns the
// successful session report and the number of Request calls made. A
// session whose only failure was the post-session directory registration
// (possible behind a lossy link) counts as served: the node holds the
// file and supplies locally.
func RequestUntilHeld(ctx context.Context, clk clock.Clock, n *node.Node, object string, maxAttempts int, bkf dac.BackoffConfig, jitter float64, uniform func() float64, retry time.Duration) (*node.SessionReport, int, error) {
	if maxAttempts < 1 {
		return nil, 0, fmt.Errorf("scenario: maxAttempts %d, want >= 1", maxAttempts)
	}
	var lastErr error
	rejections := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		report, err := n.Request(ctx, object)
		if err == nil || report != nil {
			return report, attempt, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, attempt, cerr
		}
		lastErr = err
		if attempt < maxAttempts {
			wait := retry
			if errors.Is(err, node.ErrRejected) || errors.Is(err, node.ErrNoSuppliers) {
				rejections++
				if w, berr := bkf.After(rejections); berr == nil {
					wait = w
					if jitter > 0 && uniform != nil {
						scale := 1 + jitter*(2*uniform()-1)
						wait = time.Duration(float64(wait) * scale)
						if wait < time.Microsecond {
							wait = time.Microsecond
						}
					}
				}
			}
			if err := clock.SleepCtx(ctx, clk, wait); err != nil {
				return nil, attempt, err
			}
		}
	}
	return nil, maxAttempts, fmt.Errorf("node %s: gave up after %d attempts: %w", n.ID(), maxAttempts, lastErr)
}

// workItem is one requester of the workload: a declared requester or a
// churn joiner (which revives its host name before starting).
type workItem struct {
	Peer
	seed   int64
	revive bool
}

// shardRefresh is the lease re-registration period of sharded discovery
// clients on the virtual clock: short enough that a reborn shard is
// repopulated within one churn beat, long enough not to dominate traffic.
const shardRefresh = 40 * time.Millisecond

// harness is the running state of one scenario execution.
type harness struct {
	spec    *Spec
	clk     *clock.Virtual
	net     *netx.Virtual
	dirAddr string // shard 0's address (the single server's, unsharded)

	// suppliers is the chord backend's supplier census (the directory
	// backend reads the shard registries instead): seeds at boot plus
	// served requesters, minus graceful leavers. Crashed peers stay
	// counted, the same staleness the directory exhibits.
	suppliers atomic.Int64

	// tally is the run's only observer: every node, discovery endpoint and
	// the reshard controller emit on it, and every event count the report
	// carries is read back from its snapshots.
	tally observe.Tally

	// ctrl is the elastic registry's autoscaling controller (spec.Autoscale).
	ctrl *reshard.Controller

	// preregSeeds marks the batched seed-boot path: seeds start with
	// Preregistered set and the harness announces them all to the
	// centralized directory in one RegisterBatch round.
	preregSeeds bool

	// wire builds every peer: node template and discovery backend are
	// filled once from the spec, after the registry has booted.
	wire *wiring.Builder

	mu    sync.Mutex
	done  bool // the run is over; late shard rebirths must not leak servers
	nodes map[string]*node.Node
	// shards holds the directory registry shard servers (len 1 unless
	// DirectoryShards; nil under pure chord discovery). A crashed shard's
	// slot keeps its fixed address and goes !shardUp until a churn Join
	// boots a fresh, empty server on the same address.
	shards     []*directory.Server
	shardAddrs []string
	shardUp    []bool
	// shardNames holds each slot's stable ring name under an elastic
	// registry (spawned slots never reuse a drained shard's identity).
	shardNames []string
}

// elastic reports whether the registry autoscales (spec.Autoscale).
func (h *harness) elastic() bool { return h.spec.Autoscale != nil }

// objectSuppliers snapshots the final per-object supplier registration
// counts from the live directory registries; nil in single-object mode and
// under chord discovery (whose census does not split by object).
func (h *harness) objectSuppliers() map[string]int {
	if len(h.spec.Objects) == 0 || h.chordBacked() {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int, len(h.spec.Objects))
	for _, f := range h.spec.Objects {
		for i, s := range h.shards {
			if h.shardUp[i] && s != nil {
				out[f.Name] += s.ObjectLen(f.Name)
			}
		}
	}
	return out
}

// shardStats snapshots each live registry shard's server counters (zero
// for a crashed shard); nil when the registry is not sharded.
func (h *harness) shardStats() []directory.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.shards) < 2 {
		return nil
	}
	out := make([]directory.Stats, len(h.shards))
	for i, s := range h.shards {
		if h.shardUp[i] && s != nil {
			out[i] = s.Stats()
		}
	}
	return out
}

// chordBacked reports whether the scenario runs chord discovery.
func (h *harness) chordBacked() bool { return h.spec.Discovery == BackendChord }

// supplierLevel is the current supplier count of the discovery substrate:
// the chord census, or the live shard registries summed (a dead shard's
// suppliers are invisible — exactly what its clients experience).
func (h *harness) supplierLevel() int {
	if h.chordBacked() {
		return int(h.suppliers.Load())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for i, s := range h.shards {
		if h.shardUp[i] {
			total += s.Len()
		}
	}
	return total
}

// shardSuppliers snapshots each shard's registry size (0 when down).
func (h *harness) shardSuppliers() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, len(h.shards))
	for i, s := range h.shards {
		if h.shardUp[i] {
			out[i] = s.Len()
		}
	}
	return out
}

// shardSeed derives shard i's candidate-sampling seed; generation bumps it
// when a crashed shard is reborn (a fresh server must not replay the dead
// one's sampling stream).
func (h *harness) shardSeed(i, generation int) int64 {
	return h.spec.Seed + int64(i)*1009 + int64(generation)*500009
}

// bootShard starts registry shard i. The first boot listens on a fresh
// port; a rebirth (generation > 0) re-listens on the shard's fixed
// address, where every client's ring still routes.
func (h *harness) bootShard(i, generation int) error {
	srv := directory.NewServer(h.shardSeed(i, generation))
	h.mu.Lock()
	addr := h.shardAddrs[i] // still empty on the first boot: any port
	h.mu.Unlock()
	bound, err := srv.Start(h.net.Host(ShardHost(i)), addr)
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	h.mu.Lock()
	if h.done {
		// A rebirth or a scale-out flip near the end of the run lost the
		// race against teardown and must not leak the server.
		h.mu.Unlock()
		srv.Close()
		return errors.New("scenario: run is over")
	}
	h.shards[i] = srv
	h.shardAddrs[i] = bound
	h.shardUp[i] = true
	h.mu.Unlock()
	return nil
}

// crashShard hard-kills registry shard i: the host drops off the network
// (listeners close, connections reset) and the registry state dies with
// the server. Runs from a clock callback; the blocking close is deferred
// to a fresh goroutine.
func (h *harness) crashShard(i int) {
	h.mu.Lock()
	srv := h.shards[i]
	h.shardUp[i] = false
	h.mu.Unlock()
	h.net.SetDown(ShardHost(i))
	if srv != nil {
		go srv.Close()
	}
}

// reviveShard brings a crashed shard back: the host revives and a fresh
// server — empty, like any process restarted after losing its in-memory
// state — listens on the shard's fixed address. The clients' lease
// re-registrations repopulate it within one refresh interval.
func (h *harness) reviveShard(i int) {
	h.net.SetUp(ShardHost(i))
	// The address is fixed and the host just revived; failure here means
	// the run is over or the harness itself is broken, and the scenario's
	// invariant checks will surface the dead shard.
	_ = h.bootShard(i, 1)
}

// spawnShard is the elastic registry's scale-out hook: it boots a fresh
// shard server on ShardHost(seq) under a ring name that never reuses a
// drained shard's identity. Runs on the controller's flip goroutine
// mid-run; slot index equals seq because spawns only ever append.
func (h *harness) spawnShard(seq int) (reshard.Member, error) {
	name := fmt.Sprintf("shard-%d", seq)
	h.mu.Lock()
	for len(h.shards) <= seq {
		h.shards = append(h.shards, nil)
		h.shardAddrs = append(h.shardAddrs, "")
		h.shardUp = append(h.shardUp, false)
		h.shardNames = append(h.shardNames, "")
	}
	h.shardNames[seq] = name
	h.mu.Unlock()
	if err := h.bootShard(seq, 0); err != nil {
		return reshard.Member{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return reshard.Member{Name: name, Addr: h.shardAddrs[seq], Server: h.shards[seq]}, nil
}

// retireShard is the scale-in hook: the controller calls it DrainGrace
// after the victim's flip (by then every client's overlap window has
// closed), and the harness marks the slot down and closes the server.
func (h *harness) retireShard(m reshard.Member) {
	h.mu.Lock()
	for i := range h.shards {
		if h.shards[i] == m.Server {
			h.shardUp[i] = false
			h.shards[i] = nil
		}
	}
	h.mu.Unlock()
	m.Server.Close()
}

// newBuilder fills the run's peer builder once from the spec: the node
// template every peer shares, and the discovery backend — the chord ring,
// an elastic or static sharded registry, or the single centralized
// directory. The registry shards (and the controller) must be up.
func (h *harness) newBuilder() *wiring.Builder {
	b := &wiring.Builder{Node: node.Config{
		NumClasses:   h.spec.NumClasses,
		Policy:       h.spec.Policy,
		File:         h.spec.File,
		Objects:      h.spec.Objects,
		CacheBudget:  h.spec.CacheBudget,
		SessionSlots: h.spec.SessionSlots,
		M:            h.spec.M,
		TOut:         h.spec.TOut,
		Backoff:      h.spec.Backoff,
		Clock:        h.clk,
		NoAdapt:      h.spec.NoAdapt,
		ExtraBuffer:  h.spec.Buffer,
		Observer:     &h.tally,
	}}
	switch {
	case h.chordBacked():
		b.Chord = &chordnet.Config{
			Stabilize:    h.spec.ChordStabilize,
			Replication:  h.spec.ChordReplication,
			VirtualNodes: h.spec.ChordVirtualNodes,
		}
	case h.elastic():
		b.Sharded = &directory.ShardedConfig{Refresh: shardRefresh}
		b.Autoscale = h.ctrl
	case len(h.shards) > 1:
		b.Sharded = &directory.ShardedConfig{
			Addrs:   append([]string(nil), h.shardAddrs...),
			Refresh: shardRefresh,
		}
	default:
		b.DirectoryAddr = h.dirAddr
	}
	return b
}

// startPeer wires and starts one peer on its own virtual host. Under chord
// discovery the peer's ring endpoint is also returned, so the caller can
// snapshot its discovery-cost counters.
func (h *harness) startPeer(p Peer, seed int64, isSeed bool) (*node.Node, *chordnet.Peer, error) {
	n, disc, err := h.wire.Start(context.Background(), wiring.Peer{
		ID:       p.ID,
		Class:    p.Class,
		Seed:     seed,
		Held:     p.Held,
		Priority: p.Priority,
		// The harness announces every seed in one directory RegisterBatch
		// round after boot; the node only builds its supplier state.
		Preregistered: isSeed && h.preregSeeds,
		Network:       h.net.Host(p.ID),
	}, isSeed)
	chordPeer, _ := disc.(*chordnet.Peer)
	return n, chordPeer, err
}

// Run executes the scenario on a fresh virtual substrate and returns its
// Report. The run is wall-clock fast (seconds of virtual protocol time
// execute in milliseconds) and — for jitter-free specs with a sequential
// workload — deterministic.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	clk := clock.NewVirtual()
	if spec.ClockCoalesce > 0 {
		clk.SetCoalesce(spec.ClockCoalesce)
	}
	stopClock := clk.AutoRun()
	defer stopClock()

	vnet := netx.NewVirtual(clk, spec.Seed)
	vnet.SetDefaultLink(spec.DefaultLink)
	hosts := spec.hosts()
	for _, l := range spec.Links {
		for _, pair := range expandLink(l, hosts) {
			vnet.SetLink(pair[0], pair[1], l.Config)
		}
	}

	h := &harness{
		spec:  &spec,
		clk:   clk,
		net:   vnet,
		nodes: make(map[string]*node.Node),
	}
	// Batched seed boot: against the single centralized directory, the
	// whole seed population registers in one RegisterBatch round through
	// one shared client instead of one dial per seed. Sharded registries
	// keep per-seed registration — lease re-registration must live in each
	// seed's own client so a reborn shard is repopulated — and chord has
	// no directory to batch against.
	// An elastic registry keeps per-seed registration even from one shard:
	// the seeds' leases must live in their own epoch-watching clients, or
	// the first flip would strand the batch-announced registrations.
	h.preregSeeds = spec.Discovery != BackendChord && spec.shardCount() == 1 &&
		len(spec.Seeds) > 1 && spec.Autoscale == nil
	// Chord discovery needs no directory at all; a scenario may still ask
	// for one (KeepDirectory) purely to crash it and prove the point. The
	// directory backend boots shardCount registry shards (1 = the plain
	// centralized server).
	if spec.Discovery != BackendChord || spec.KeepDirectory {
		n := spec.shardCount()
		h.shards = make([]*directory.Server, n)
		h.shardAddrs = make([]string, n)
		h.shardUp = make([]bool, n)
		h.shardNames = append([]string(nil), directory.DefaultShardNames(n)...)
		for i := 0; i < n; i++ {
			if err := h.bootShard(i, 0); err != nil {
				h.closeShards()
				return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
			}
		}
		defer h.closeShards()
		h.dirAddr = h.shardAddrs[0]
	}
	defer h.closeAll()
	if spec.Autoscale != nil {
		a := spec.Autoscale
		members := make([]reshard.Member, spec.shardCount())
		for i := range members {
			members[i] = reshard.Member{Name: h.shardNames[i], Addr: h.shardAddrs[i], Server: h.shards[i]}
		}
		ctrl, err := reshard.New(reshard.Config{
			Clock:      clk,
			Interval:   a.Interval,
			HighWater:  a.HighWater,
			LowWater:   a.LowWater,
			Sustain:    a.Sustain,
			MinShards:  a.MinShards,
			MaxShards:  a.MaxShards,
			DrainGrace: a.DrainGrace,
			Members:    members,
			Spawn:      h.spawnShard,
			Retire:     h.retireShard,
			Observer:   &h.tally,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		h.ctrl = ctrl
		ctrl.Start()
		defer ctrl.Close()
	}
	h.wire = h.newBuilder()

	ctx := context.Background()
	var seedRegs []transport.Register
	for i, p := range spec.Seeds {
		n, _, err := h.startPeer(p, int64(i+1), true)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: seed %s: %w", spec.Name, p.ID, err)
		}
		h.suppliers.Add(1)
		h.track(p.ID, n)
		if h.preregSeeds {
			for _, name := range n.Library().Names() {
				obj := ""
				if len(spec.Objects) > 0 {
					obj = name
				}
				seedRegs = append(seedRegs, transport.Register{
					ID: p.ID, Addr: n.Addr(), Class: p.Class, Object: obj,
				})
			}
		}
	}
	if h.preregSeeds {
		cl := directory.NewClientOn(vnet.Host(DirectoryHost), h.dirAddr)
		err := cl.RegisterBatch(ctx, seedRegs)
		cl.Close()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: batch seed registration: %w", spec.Name, err)
		}
	}
	// The dials expended booting the seed population: one batched directory
	// round instead of one dial per seed when preregSeeds is on.
	seedBootDials := vnet.Dials()

	// Everything below shares one time zero: the run start, taken after
	// the seeds have booted. Link events, churn events and workload Start
	// offsets are all anchored here, back to back, so an event and an
	// arrival declared at the same instant fire together.
	base := clk.Now()
	for _, ev := range spec.Events {
		if ev.Link.A == "" {
			vnet.ScheduleDefaultLink(ev.At, ev.Link.Config)
			continue
		}
		for _, pair := range expandLink(ev.Link, hosts) {
			vnet.ScheduleLink(ev.At, pair[0], pair[1], ev.Link.Config)
		}
	}

	// The workload: declared requesters plus churn joiners. Node seeds
	// are fixed by workload position, not goroutine scheduling, so
	// identically-seeded runs draw identical admission randomness.
	work := make([]workItem, 0, len(spec.Requesters)+len(spec.Churn))
	for i, p := range spec.Requesters {
		work = append(work, workItem{Peer: p, seed: int64(1000 + i)})
	}
	for _, ev := range spec.Churn {
		ev := ev
		shard := -1
		if spec.shardCount() > 1 {
			shard = spec.shardIndex(ev.Node)
		}
		switch ev.Action {
		case Crash:
			if shard >= 0 {
				clk.AfterFunc(ev.At, func() { h.crashShard(shard) })
				continue
			}
			clk.AfterFunc(ev.At, func() { vnet.SetDown(ev.Node) })
		case Leave:
			// Close blocks on connection handlers; never block the
			// clock's advancing goroutine.
			clk.AfterFunc(ev.At, func() { go h.closeNode(ev.Node) })
		case Join:
			if shard >= 0 {
				// Rebirth of a crashed registry shard, not a peer: a fresh
				// empty server re-listens on the shard's fixed address.
				clk.AfterFunc(ev.At, func() { go h.reviveShard(shard) })
				continue
			}
			work = append(work, workItem{
				Peer:   Peer{ID: ev.Node, Class: ev.Class, Start: ev.At},
				seed:   int64(2000 + len(work)),
				revive: true,
			})
		}
	}
	// Cross traffic: sinks boot now, flows start at their instants and die
	// with the run (stopTraffic cancels them while the clock still runs).
	traffic, stopTraffic := h.startTraffic()
	defer stopTraffic()

	results := make([]NodeResult, len(work))
	var wg sync.WaitGroup
	for i, w := range work {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.runRequester(base, w, &results[i])
		}()
	}
	wg.Wait()
	elapsed := clk.Since(base)

	stopTraffic()
	if h.elastic() {
		// Let trailing flips, migrations and overlap windows settle before
		// the zero-loss audit reads the final registries: wait until the
		// epoch holds still across two refresh periods.
		for i := 0; i < 8; i++ {
			e := h.ctrl.Epoch()
			clk.Sleep(2 * shardRefresh)
			if h.ctrl.Epoch() == e {
				break
			}
		}
	}
	r := &Report{
		Spec:              spec,
		Nodes:             results,
		Elapsed:           elapsed,
		FinalSuppliers:    h.supplierLevel(),
		ShardSuppliers:    h.shardSuppliers(),
		ShardStats:        h.shardStats(),
		Dials:             vnet.Dials(),
		SeedBootDials:     seedBootDials,
		QueueDrops:        vnet.QueueDrops(),
		ObjectSuppliers:   h.objectSuppliers(),
		LostRegistrations: h.lostRegistrations(),
		Events:            h.tally.Snapshot(),
	}
	for _, st := range traffic {
		r.Traffic = append(r.Traffic, st.result(elapsed))
	}
	r.buildSeries()
	return r, nil
}

// lostRegistrations audits the elastic registry's zero-loss contract at
// the end of the run: every live supplier's registration must be present
// on the shard owning its peer ID under the final epoch's ring. It
// returns the missing id (or id/object) keys, sorted; nil when the
// registry is not elastic.
func (h *harness) lostRegistrations() []string {
	if !h.elastic() {
		return nil
	}
	epoch, members := h.ctrl.Snapshot()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	ring, err := directory.NewShardRingOf(epoch, names, directory.ShardPoints)
	if err != nil {
		return []string{fmt.Sprintf("audit ring: %v", err)}
	}
	h.mu.Lock()
	nodes := make(map[string]*node.Node, len(h.nodes))
	for id, n := range h.nodes {
		nodes[id] = n
	}
	h.mu.Unlock()
	ids := make([]string, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var lost []string
	for _, id := range ids {
		n := nodes[id]
		owner := members[ring.Owner(id)].Server
		if len(h.spec.Objects) == 0 {
			if n.Supplying() && !owner.Has(id, "") {
				lost = append(lost, id)
			}
			continue
		}
		for _, f := range h.spec.Objects {
			if n.SupplyingObject(f.Name) && !owner.Has(id, f.Name) {
				lost = append(lost, id+"/"+f.Name)
			}
		}
	}
	return lost
}

// closeShards shuts every live registry shard down.
func (h *harness) closeShards() {
	h.mu.Lock()
	h.done = true
	shards := append([]*directory.Server(nil), h.shards...)
	h.mu.Unlock()
	for _, s := range shards {
		if s != nil {
			s.Close()
		}
	}
}

// runRequester drives one requesting peer from its arrival to completion
// (or exhaustion of its attempt budget) and records its result in res. It
// fills res in place: every requester's goroutine sits in this frame for
// the whole run, and a NodeResult on it (the event snapshot makes it 0.8 KB)
// is paid once per stack.
func (h *harness) runRequester(base time.Time, w workItem, res *NodeResult) {
	res.ID, res.Class = w.ID, w.Class
	if w.Start > 0 {
		h.clk.Sleep(w.Start)
	}
	if w.revive {
		h.net.SetUp(w.ID)
	}
	res.Start = h.clk.Since(base)
	n, chordPeer, err := h.startPeer(w.Peer, w.seed, false)
	if err != nil {
		res.Done = h.clk.Since(base)
		res.Err = err
		return
	}
	h.track(w.ID, n)
	var uniform func() float64
	if h.spec.BackoffJitter > 0 {
		// One splitmix64 word per requester, not a math/rand table: seeding
		// ten thousand 5KB generators showed up in the crowd profile.
		rng := splitmix.Rand(w.seed)
		uniform = rng.Float64
	}
	// The request sequence: one object in single-object mode (the empty
	// name routes to the node's primary), or the peer's declared Objects
	// in order — requesting past the cache budget is what forces an
	// eviction mid-run. Attempts accumulate across the sequence; the
	// recorded session and invariants are the last object's.
	objects := w.Peer.Objects
	if len(objects) == 0 {
		objects = []string{""}
	}
	var report *node.SessionReport
	attempts := 0
	var rerr error
	for _, obj := range objects {
		var a int
		report, a, rerr = RequestUntilHeld(context.Background(), h.clk, n, obj, h.spec.MaxAttempts, h.spec.Backoff, h.spec.BackoffJitter, uniform, retryDelay)
		attempts += a
		if rerr != nil {
			break
		}
	}
	res.Done = h.clk.Since(base)
	res.Attempts = attempts
	if chordPeer != nil {
		res.Lookups, res.LookupHops, res.SampleRounds = chordPeer.LookupStats()
	}
	res.Events = h.tally.Snapshot()
	if rerr != nil {
		res.Err = rerr
		return
	}
	file := h.spec.objectFile(objects[len(objects)-1])
	if len(h.spec.Objects) > 0 {
		res.Object = file.Name
	}
	h.suppliers.Add(1)
	res.Session = report
	res.Suppliers = make([]string, len(report.Suppliers))
	for i, s := range report.Suppliers {
		res.Suppliers[i] = s.ID
	}
	res.Supplying = n.Supplying()
	res.Continuous = report.Report.Continuous()
	res.Downgraded = report.Downgraded
	res.MaxQuality = int(report.MaxQuality)
	if report.Duration > 0 {
		res.ThroughputBps = float64(report.Bytes) / report.Duration.Seconds()
	}
	res.TheoremOK = report.TheoreticalDelay == time.Duration(len(report.Suppliers))*file.SegmentTime
	res.StoreOK = storeExact(n.StoreOf(file.Name), file)
	res.SupplierLevel = h.supplierLevel()
}

func (h *harness) track(id string, n *node.Node) {
	h.mu.Lock()
	old := h.nodes[id]
	h.nodes[id] = n
	h.mu.Unlock()
	if old != nil {
		// A rejoin displaced the crashed instance; close it so its idle
		// timers stop (its connections are already dead). With the host
		// revived, the close also clears the instance's stale directory
		// entry — the staleness window is crash-to-rejoin. The chord
		// census retires the stale instance the same way, or the rejoined
		// peer would be counted twice once served. An instance that left
		// gracefully was already retired by closeNode and reports
		// Supplying() false once closed, so it cannot be retired twice.
		if h.chordBacked() && old.Supplying() {
			h.suppliers.Add(-1)
		}
		old.Close()
	}
}

// closeNode closes one tracked node (the graceful-leave churn action).
func (h *harness) closeNode(id string) {
	h.mu.Lock()
	n := h.nodes[id]
	h.mu.Unlock()
	if n != nil {
		if h.chordBacked() && n.Supplying() {
			h.suppliers.Add(-1)
		}
		n.Close()
	}
}

// closeAll shuts every node down; Close is idempotent, so nodes that left
// mid-run are fine.
func (h *harness) closeAll() {
	h.mu.Lock()
	nodes := make([]*node.Node, 0, len(h.nodes))
	for _, n := range h.nodes {
		nodes = append(nodes, n)
	}
	h.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// expandLink resolves a link rule to concrete host pairs, expanding the
// Wildcard B side to every other declared host.
func expandLink(l Link, hosts []string) [][2]string {
	if l.B != Wildcard {
		return [][2]string{{l.A, l.B}}
	}
	out := make([][2]string, 0, len(hosts)-1)
	for _, h := range hosts {
		if h != l.A {
			out = append(out, [2]string{l.A, h})
		}
	}
	return out
}

// storeExact reports whether the store holds the complete file with
// byte-exact content at each segment's recorded quality: a downgraded
// segment must match its rendition on the ladder exactly, not the
// full-quality bytes it replaced.
func storeExact(s *media.Store, f *media.File) bool {
	if !s.Complete() {
		return false
	}
	for id := 0; id < f.Segments; id++ {
		got, ok := s.Get(media.SegmentID(id))
		if !ok || !bytes.Equal(got.Data, media.SegmentContentAt(f, media.SegmentID(id), got.Quality).Data) {
			return false
		}
	}
	return true
}

// sortResults orders results by completion instant, ties broken by ID, so
// series construction and report output are stable.
func sortResults(results []NodeResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Done != results[j].Done {
			return results[i].Done < results[j].Done
		}
		return results[i].ID < results[j].ID
	})
}
