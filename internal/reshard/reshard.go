// Package reshard implements the elastic-directory control loop: a
// Controller that watches per-shard directory.Stats load on the shared
// clock, adds a registry shard when sustained load exceeds a high-water
// mark, drains the coldest shard when it sustains below a low-water mark,
// and announces every change as a resharding epoch (directory.Server
// SetEpoch pushes "epoch E, shards S" to watching clients, which migrate
// their registrations in one batched round — see internal/directory).
//
// The controller owns membership and the epoch number; it does not own
// the servers' lifecycles. A Deployment (Deploy) owns those, for p2pdir
// and the scenario harness alike: it boots and names the shards, pins
// the bootstrap set, and plugs in the controller's hooks — Spawn boots a
// fresh shard server, Retire tears a drained one down, but only after
// DrainGrace, which must exceed the clients' overlap window so no client
// still double-reading the old shard set dials a dead server.
package reshard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// Member is one registry shard under the controller: the stable name
// that places its arcs on the consistent-hash ring, the address clients
// dial, and the server whose Stats feed the load loop and whose SetEpoch
// reaches its watchers.
type Member struct {
	Name   string
	Addr   string
	Server *directory.Server
}

// Config parameterizes a Controller.
type Config struct {
	// Clock drives the sampling ticks and the retire grace timer (nil
	// means the wall clock). Scenario runs pass the shared virtual clock.
	Clock clock.Clock
	// Interval is the load sampling period. Required.
	Interval time.Duration
	// HighWater and LowWater are per-shard load thresholds in lookups
	// per interval: mean load above HighWater for Sustain consecutive
	// intervals adds a shard; mean load below LowWater for Sustain
	// intervals drains one, the coldest unpinned shard going first.
	// Lookups are
	// the one migration-invariant demand signal: registrations are
	// owner-routed and include every epoch flip's own migration surge (a
	// feedback loop that would flip forever), and lease refreshes repeat
	// for as long as suppliers exist, so either would hold a drained
	// crowd's shards hot.
	// Scale-in keys on the aggregate, not the coldest shard alone — a
	// skewed crowd would otherwise flap a freshly spawned (still cold)
	// shard straight back out. HighWater must exceed LowWater.
	HighWater, LowWater float64
	// Sustain is how many consecutive intervals a threshold must hold
	// before the controller acts (default 2) — one hot sample is noise,
	// not a flash crowd.
	Sustain int
	// MaxShards caps the shard count (default: the initial member
	// count). The floor is max(Pinned, 1).
	MaxShards int
	// Pinned protects the first Pinned initial members from draining.
	// They are the deployment's advertised bootstrap set — the addresses
	// every booting client dials — so the drain victim is always chosen
	// among the spawned tail, even when a pinned shard is the coldest.
	// Pinned members are never removed, which keeps them at the head of
	// the shard order and the shard count at or above Pinned. At most
	// len(Members); default 0 (any shard may drain, down to one). Deploy
	// pins the whole bootstrap set.
	Pinned int
	// DrainGrace is how long a drained shard's server outlives its flip
	// before Retire (default 2×Interval). It must exceed the clients'
	// overlap window (their lease refresh interval): during that window
	// clients still read — and withdraw stale copies from — the drained
	// shard.
	DrainGrace time.Duration
	// Epoch is the first epoch the controller announces (default 1; it
	// must be positive so it supersedes the servers' zero state).
	Epoch int64
	// Members is the initial shard set. Required, non-empty, with
	// distinct names.
	Members []Member
	// Spawn boots a fresh shard server for a scale-out flip and returns
	// its member record; seq is a monotonic sequence number that never
	// reuses a drained shard's identity. Nil disables scale-out.
	Spawn func(seq int) (Member, error)
	// Retire tears down a drained shard's server, DrainGrace after its
	// flip (or immediately at Close). Called at most once per member.
	// Nil means drained servers are left to the caller.
	Retire func(Member)
	// Observer, when non-nil, receives EpochFlip, ShardAdded and
	// ShardDrained events.
	Observer observe.Observer
}

// pendingRetire is one drained member waiting out its grace period.
type pendingRetire struct {
	m    Member
	t    clock.Timer
	done bool
}

// Controller runs the autoscaling loop. Create with New, arm with Start,
// stop with Close.
type Controller struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	members []Member
	epoch   int64
	seq     int
	// last holds each member's previous cumulative lookup total; tick
	// loads are deltas against it.
	last     map[string]int64
	hot      int
	cold     int
	flips    int64
	flipping bool
	retires  []*pendingRetire
	timer    clock.Timer
	started  bool
	closed   bool
	wg       sync.WaitGroup
}

// New validates cfg and returns an idle controller; Start arms it.
func New(cfg Config) (*Controller, error) {
	if cfg.Interval <= 0 {
		return nil, errors.New("reshard: controller needs a positive Interval")
	}
	if len(cfg.Members) == 0 {
		return nil, errors.New("reshard: controller needs at least one initial member")
	}
	names := make(map[string]bool, len(cfg.Members))
	for i, m := range cfg.Members {
		if m.Name == "" || m.Addr == "" || m.Server == nil {
			return nil, fmt.Errorf("reshard: member %d needs name, addr and server", i)
		}
		if names[m.Name] {
			return nil, fmt.Errorf("reshard: duplicate member name %q", m.Name)
		}
		names[m.Name] = true
	}
	if cfg.HighWater <= cfg.LowWater {
		return nil, fmt.Errorf("reshard: HighWater (%g) must exceed LowWater (%g)", cfg.HighWater, cfg.LowWater)
	}
	if cfg.LowWater < 0 {
		return nil, fmt.Errorf("reshard: LowWater must be >= 0, got %g", cfg.LowWater)
	}
	if cfg.Sustain <= 0 {
		cfg.Sustain = 2
	}
	if cfg.Pinned < 0 || cfg.Pinned > len(cfg.Members) {
		return nil, fmt.Errorf("reshard: Pinned (%d) must be within the %d initial members", cfg.Pinned, len(cfg.Members))
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = len(cfg.Members)
	}
	if cfg.MaxShards < cfg.Pinned {
		return nil, fmt.Errorf("reshard: MaxShards (%d) below the %d pinned members", cfg.MaxShards, cfg.Pinned)
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * cfg.Interval
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 1
	}
	if cfg.Retire == nil {
		cfg.Retire = func(Member) {}
	}
	return &Controller{
		cfg:     cfg,
		clk:     clock.Or(cfg.Clock),
		members: append([]Member(nil), cfg.Members...),
		epoch:   cfg.Epoch,
		seq:     len(cfg.Members),
		last:    make(map[string]int64, len(cfg.Members)),
	}, nil
}

// Start announces the initial epoch to every member server (so clients
// subscribing from now on see a consistent shard set) and arms the
// sampling loop. Idempotent.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	for _, m := range c.members {
		c.last[m.Name] = load(m)
	}
	ep := c.epochLocked()
	targets := append([]Member(nil), c.members...)
	c.armLocked()
	c.mu.Unlock()
	for _, m := range targets {
		m.Server.SetEpoch(ep)
	}
}

// Epoch returns the current epoch number.
func (c *Controller) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Members returns the current shard set, in shard order.
func (c *Controller) Members() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Member(nil), c.members...)
}

// Snapshot returns the current epoch and shard set in one consistent
// read — what a client booting mid-run must route by.
func (c *Controller) Snapshot() (int64, []Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch, append([]Member(nil), c.members...)
}

// Flips returns how many epoch flips the controller has performed.
func (c *Controller) Flips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flips
}

// Close stops the loop. Drained members still inside their grace period
// are retired immediately — the deployment is going away with them.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	t := c.timer
	c.timer = nil
	var retire []Member
	for _, p := range c.retires {
		if !p.done {
			p.done = true
			p.t.Stop()
			retire = append(retire, p.m)
		}
	}
	c.retires = nil
	c.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	for _, m := range retire {
		c.cfg.Retire(m)
	}
	c.wg.Wait()
}

// load is one member's cumulative demand, measured as lookups alone.
// Registrations are deliberately excluded: an epoch flip repopulates the
// new shard set via refresh-flagged register batches that the receiving
// shard cannot tell from first-time demand, so counting registers feeds
// every flip's migration surge back into the load signal — a storm that
// flips forever. Lease refreshes are excluded for the complementary
// reason: they repeat every interval for as long as suppliers exist and
// would hold a drained crowd's shards above the low-water mark forever.
func load(m Member) int64 {
	return m.Server.Stats().Lookups
}

// epochLocked builds the wire announcement of the current state.
func (c *Controller) epochLocked() transport.DirEpoch {
	shards := make([]transport.DirShard, len(c.members))
	for i, m := range c.members {
		shards[i] = transport.DirShard{Name: m.Name, Addr: m.Addr}
	}
	return transport.DirEpoch{Epoch: c.epoch, Shards: shards}
}

// armLocked schedules the next sampling tick.
func (c *Controller) armLocked() {
	if c.closed {
		return
	}
	c.timer = c.clk.AfterFunc(c.cfg.Interval, c.tick)
}

// tick samples every member's load delta and applies the watermark
// policy. It runs as a clock callback and must not block: sampling reads
// atomics, and a flip (which boots servers and pushes epochs over the
// network) runs on its own goroutine while ticks keep sampling.
func (c *Controller) tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.armLocked()
	if c.flipping {
		return // membership is changing under this tick; sample next round
	}
	var total int64
	// Pinned members are never drain candidates. They stay at the head
	// of the member order (drains only ever remove later indices, spawns
	// append), so skipping the first Pinned indices skips exactly the
	// initial bootstrap set — and a drain needs more than max(Pinned, 1)
	// members.
	coldest, coldLoad := -1, int64(0)
	for i, m := range c.members {
		cum := load(m)
		delta := cum - c.last[m.Name]
		c.last[m.Name] = cum
		total += delta
		if i >= c.cfg.Pinned && (coldest < 0 || delta < coldLoad) {
			coldest, coldLoad = i, delta
		}
	}
	mean := float64(total) / float64(len(c.members))
	if mean > c.cfg.HighWater {
		c.hot++
	} else {
		c.hot = 0
	}
	if mean < c.cfg.LowWater && len(c.members) > 1 {
		c.cold++
	} else {
		c.cold = 0
	}
	switch {
	case c.hot >= c.cfg.Sustain && len(c.members) < c.cfg.MaxShards && c.cfg.Spawn != nil:
		c.hot, c.cold = 0, 0
		c.flipping = true
		c.wg.Add(1)
		go c.grow()
	case c.cold >= c.cfg.Sustain && coldest >= 0:
		c.hot, c.cold = 0, 0
		c.flipping = true
		c.wg.Add(1)
		go c.drain(coldest)
	}
}

// grow spawns one shard and flips the epoch to include it.
func (c *Controller) grow() {
	defer c.wg.Done()
	c.mu.Lock()
	seq := c.seq
	c.seq++
	c.mu.Unlock()
	m, err := c.cfg.Spawn(seq)
	if err != nil {
		c.mu.Lock()
		c.flipping = false
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.cfg.Retire(m)
		return
	}
	c.members = append(c.members, m)
	c.epoch++
	c.last[m.Name] = load(m)
	c.flips++
	ep := c.epochLocked()
	targets := append([]Member(nil), c.members...)
	idx := len(c.members) - 1
	c.flipping = false
	c.mu.Unlock()
	observe.Emit(c.cfg.Observer, observe.Event{
		Component: "reshard",
		Type:      observe.ShardAdded,
		Object:    m.Name,
		Shard:     idx,
		Epoch:     ep.Epoch,
	})
	observe.Emit(c.cfg.Observer, observe.Event{
		Component: "reshard",
		Type:      observe.EpochFlip,
		Epoch:     ep.Epoch,
		Count:     len(ep.Shards),
	})
	for _, t := range targets {
		t.Server.SetEpoch(ep)
	}
}

// drain removes the member at idx and flips the epoch to exclude it. The
// drained server keeps running — and keeps receiving the flip, so its
// watchers learn to leave — until DrainGrace expires and Retire runs.
func (c *Controller) drain(idx int) {
	defer c.wg.Done()
	c.mu.Lock()
	if c.closed || idx >= len(c.members) {
		c.flipping = false
		c.mu.Unlock()
		return
	}
	victim := c.members[idx]
	c.members = append(c.members[:idx:idx], c.members[idx+1:]...)
	c.epoch++
	delete(c.last, victim.Name)
	c.flips++
	ep := c.epochLocked()
	targets := append([]Member(nil), c.members...)
	p := &pendingRetire{m: victim}
	p.t = c.clk.AfterFunc(c.cfg.DrainGrace, func() { c.retire(p) })
	c.retires = append(c.retires, p)
	c.flipping = false
	c.mu.Unlock()
	observe.Emit(c.cfg.Observer, observe.Event{
		Component: "reshard",
		Type:      observe.ShardDrained,
		Object:    victim.Name,
		Shard:     idx,
		Epoch:     ep.Epoch,
	})
	observe.Emit(c.cfg.Observer, observe.Event{
		Component: "reshard",
		Type:      observe.EpochFlip,
		Epoch:     ep.Epoch,
		Count:     len(ep.Shards),
	})
	// The victim hears the flip too: its watching clients must adopt the
	// new shard set (and drop their subscription) before the server dies.
	victim.Server.SetEpoch(ep)
	for _, t := range targets {
		t.Server.SetEpoch(ep)
	}
}

// retire runs when a drained member's grace period expires. The Retire
// callback may block (it tears down a server), so it leaves the clock
// callback immediately.
func (c *Controller) retire(p *pendingRetire) {
	c.mu.Lock()
	if c.closed || p.done {
		c.mu.Unlock()
		return
	}
	p.done = true
	for i, q := range c.retires {
		if q == p {
			c.retires = append(c.retires[:i], c.retires[i+1:]...)
			break
		}
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		c.cfg.Retire(p.m)
	}()
}
