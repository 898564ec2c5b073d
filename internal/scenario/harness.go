package scenario

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/chordnet"
	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
	"p2pstream/internal/wiring"
)

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
	spec  *Spec
	clk   *clock.Virtual
	net   *netx.Virtual
	hosts []string // every virtual host of the spec, for wildcard link rules

	// suppliers is the chord backend's supplier census (the directory
	// backend reads the shard registries instead): seeds at boot plus
	// served requesters, minus graceful leavers. Crashed peers stay
	// counted, the same staleness the directory exhibits.
	suppliers atomic.Int64

	// tally is the run's only observer: every node, discovery endpoint and
	// the reshard controller emit on it, and every event count the report
	// carries is read back from its snapshots.
	tally observe.Tally

	// reg is the directory registry: its shard slots and autoscaler.
	reg registry

	// wire builds every peer: node template and discovery backend are
	// filled once from the spec, after the registry has booted.
	wire *wiring.Builder

	// closers is the run's teardown: every step pushes the closer of what
	// it acquired, and Run's one defer runs them last-in first-out — the
	// traffic before the nodes, the nodes before the registry, the clock
	// last.
	closers []func()

	mu    sync.Mutex
	nodes map[string]*node.Node
}

// newHarness is the substrate step: the virtual clock (driven until the
// run's teardown), the virtual network and the spec's static links.
func newHarness(spec *Spec) *harness {
	clk := clock.NewVirtual()
	if spec.ClockCoalesce > 0 {
		clk.SetCoalesce(spec.ClockCoalesce)
	}
	h := &harness{spec: spec, clk: clk, hosts: spec.hosts(), nodes: make(map[string]*node.Node)}
	h.onClose(clk.AutoRun())
	h.net = netx.NewVirtual(clk, spec.Seed)
	h.net.SetDefaultLink(spec.DefaultLink)
	for _, l := range spec.Links {
		for _, pair := range expandLink(l, h.hosts) {
			h.net.SetLink(pair[0], pair[1], l.Config)
		}
	}
	return h
}

func (h *harness) onClose(f func()) { h.closers = append(h.closers, f) }

func (h *harness) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

// elastic reports whether the registry autoscales (spec.Autoscale).
func (h *harness) elastic() bool { return h.spec.Autoscale != nil }

// chordBacked reports whether the scenario runs chord discovery.
func (h *harness) chordBacked() bool { return h.spec.Discovery == BackendChord }

// supplierLevel is the current supplier count of the discovery substrate:
// the chord census, or the registry's live size.
func (h *harness) supplierLevel() int {
	if h.chordBacked() {
		return int(h.suppliers.Load())
	}
	return h.reg.dep.Len()
}

// batchedSeeds marks the batched seed-boot path: against the single
// centralized directory, the whole seed population registers in one
// RegisterBatch round through one shared client instead of one dial per
// seed, and the seeds start with Preregistered set. Sharded registries
// keep per-seed registration — lease re-registration must live in each
// seed's own client so a reborn shard is repopulated — and chord has no
// directory to batch against. An elastic registry keeps per-seed
// registration even from one shard: the seeds' leases must live in their
// own epoch-watching clients, or the first flip would strand the
// batch-announced registrations.
func (h *harness) batchedSeeds() bool {
	return !h.chordBacked() && h.spec.shardCount() == 1 && len(h.spec.Seeds) > 1 && !h.elastic()
}

// newBuilder fills the run's peer builder once from the spec: the node
// template every peer shares, and the discovery backend — the chord ring,
// an elastic or static sharded registry, or the single centralized
// directory. The registry shards (and the controller) must be up.
func (h *harness) newBuilder() *wiring.Builder {
	b := &wiring.Builder{Node: node.Config{
		NumClasses:   h.spec.NumClasses,
		Policy:       h.spec.Policy,
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
		b.Autoscale = h.reg.dep.Controller()
	case h.spec.shardCount() > 1:
		b.Sharded = &directory.ShardedConfig{Addrs: h.reg.dep.Addrs(), Refresh: shardRefresh}
	default:
		b.DirectoryAddr = h.reg.dep.Addrs()[0]
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
		Preregistered: isSeed && h.batchedSeeds(),
		Network:       h.net.Host(p.ID),
	}, isSeed)
	chordPeer, _ := disc.(*chordnet.Peer)
	return n, chordPeer, err
}

// Run executes the scenario on a fresh virtual substrate and returns its
// Report. The run is wall-clock fast (seconds of virtual protocol time
// execute in milliseconds) and — for jitter-free specs with a sequential
// workload — deterministic. It is a fixed sequence of steps: substrate,
// registry, seeds, schedule, traffic, workload, elastic settle, report.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h := newHarness(&spec)
	defer h.close()
	if err := h.bootRegistry(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	if err := h.bootSeeds(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	// The dials expended booting the seed population: one batched directory
	// round instead of one dial per seed when the seeds boot batched.
	seedBootDials := h.net.Dials()

	// Everything below shares one time zero: the run start, taken after
	// the seeds have booted. Link events, churn events and workload Start
	// offsets are all anchored here, back to back, so an event and an
	// arrival declared at the same instant fire together.
	base := h.clk.Now()
	work := h.schedule()
	traffic, stopTraffic := h.startTraffic()
	results := h.runWorkload(base, work)
	elapsed := h.clk.Since(base)
	stopTraffic()
	h.settle()
	return h.report(results, elapsed, seedBootDials, traffic), nil
}

// bootSeeds is the seeds step: it fills the run's peer builder on the
// booted registry and starts every seed, announcing them all in one
// RegisterBatch round when the seeds boot batched. Every node the run
// tracks, seed or requester, closes at teardown.
func (h *harness) bootSeeds() error {
	h.onClose(h.closeAll)
	h.wire = h.newBuilder()
	var regs []transport.Register
	for i, p := range h.spec.Seeds {
		n, _, err := h.startPeer(p, int64(i+1), true)
		if err != nil {
			return fmt.Errorf("seed %s: %w", p.ID, err)
		}
		h.suppliers.Add(1)
		h.track(p.ID, n)
		for _, name := range n.Library().Names() {
			regs = append(regs, transport.Register{ID: p.ID, Addr: n.Addr(), Class: p.Class, Object: name})
		}
	}
	if !h.batchedSeeds() {
		return nil
	}
	cl := directory.NewClientOn(h.net.Host(DirectoryHost), h.wire.DirectoryAddr)
	err := cl.RegisterBatch(context.Background(), regs)
	cl.Close()
	if err != nil {
		return fmt.Errorf("batch seed registration: %w", err)
	}
	return nil
}

// schedule is the schedule step, taken at the run's time zero: link and
// churn events become clock callbacks, and the workload — declared
// requesters plus churn joiners — becomes work items. Node seeds are fixed
// by workload position, not goroutine scheduling, so identically-seeded
// runs draw identical admission randomness.
func (h *harness) schedule() []workItem {
	for _, ev := range h.spec.Events {
		if ev.Link.A == "" {
			h.net.ScheduleDefaultLink(ev.At, ev.Link.Config)
			continue
		}
		for _, pair := range expandLink(ev.Link, h.hosts) {
			h.net.ScheduleLink(ev.At, pair[0], pair[1], ev.Link.Config)
		}
	}
	work := make([]workItem, 0, len(h.spec.Requesters)+len(h.spec.Churn))
	for i, p := range h.spec.Requesters {
		work = append(work, workItem{Peer: p, seed: int64(1000 + i)})
	}
	for _, ev := range h.spec.Churn {
		shard := h.spec.shardIndex(ev.Node)
		switch ev.Action {
		case Crash:
			h.clk.AfterFunc(ev.At, func() {
				if shard >= 0 {
					// A hard-killed registry shard loses its in-memory
					// state with the server.
					h.reg.dep.Crash(shard)
				}
				h.net.SetDown(ev.Node)
			})
		case Leave:
			// Close blocks on connection handlers; never block the
			// clock's advancing goroutine.
			h.clk.AfterFunc(ev.At, func() { go h.closeNode(ev.Node) })
		case Join:
			if shard >= 0 {
				// Rebirth of a crashed registry shard, not a peer: the host
				// revives and a fresh, empty server re-listens on the
				// shard's fixed address, where the clients' lease
				// re-registrations repopulate it within one refresh. A
				// failed rebirth (the run is over) leaves the shard dead
				// for the invariant checks to surface.
				h.clk.AfterFunc(ev.At, func() {
					h.net.SetUp(ev.Node)
					go h.reg.dep.Restart(shard)
				})
				continue
			}
			work = append(work, workItem{
				Peer:   Peer{ID: ev.Node, Class: ev.Class, Start: ev.At},
				seed:   int64(2000 + len(work)),
				revive: true,
			})
		}
	}
	return work
}

// runWorkload is the workload step: one goroutine per work item drives
// its requester to completion, and the step returns once all have.
func (h *harness) runWorkload(base time.Time, work []workItem) []NodeResult {
	results := make([]NodeResult, len(work))
	var wg sync.WaitGroup
	for i, w := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.runRequester(base, w, &results[i])
		}()
	}
	wg.Wait()
	return results
}

// report is the report step: the final readings of the substrate, the
// registry and the tally around the requesters' results.
func (h *harness) report(results []NodeResult, elapsed time.Duration, seedBootDials int64, traffic []*trafficState) *Report {
	r := &Report{
		Spec:           *h.spec,
		Nodes:          results,
		Elapsed:        elapsed,
		FinalSuppliers: h.supplierLevel(),
		Dials:          h.net.Dials(),
		SeedBootDials:  seedBootDials,
		QueueDrops:     h.net.QueueDrops(),
	}
	h.reg.census(r)
	r.LostRegistrations = h.lostRegistrations()
	r.Events = h.tally.Snapshot()
	for _, st := range traffic {
		r.Traffic = append(r.Traffic, st.result(elapsed))
	}
	r.buildSeries()
	return r
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
	// The request sequence: the peer's declared Objects in order, or the
	// first catalog object — requesting past the cache budget is what
	// forces an eviction mid-run. Attempts accumulate across the sequence; the
	// recorded session and invariants are the last object's. A report
	// with an error is a served session whose caching or registration
	// failed after it: the store it filled is checked from the report.
	objects := w.Peer.Objects
	if len(objects) == 0 {
		objects = []string{h.spec.Objects[0].Name}
	}
	var report *node.SessionReport
	var rerr error
	for _, obj := range objects {
		if report, rerr = n.RequestUntilAdmitted(context.Background(), obj, h.spec.MaxAttempts); report == nil {
			break
		}
	}
	res.Attempts = n.Stats().Requests
	res.Done = h.clk.Since(base)
	if chordPeer != nil {
		res.Lookups, res.LookupHops, res.SampleRounds = chordPeer.LookupStats()
	}
	res.Events = h.tally.Snapshot()
	if report == nil {
		res.Err = rerr
		return
	}
	file := h.spec.objectFile(objects[len(objects)-1])
	res.Object = file.Name
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
	res.StoreOK = storeExact(report.Store, file)
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
	nodes := slices.Collect(maps.Values(h.nodes))
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
// full-quality bytes it replaced. No store is not an exact one.
func storeExact(s *media.Store, f *media.File) bool {
	if s == nil || !s.Complete() {
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
