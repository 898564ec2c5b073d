// Package reshard runs a directory registry as one Deployment, for p2pdir
// and the scenario harness alike: it boots and names the shards, crashes
// and restarts them for churn runs, and closes every server exactly once.
//
// Given an autoscale Config the deployment is elastic. It watches each
// shard's directory.Stats load on the shared clock, adds a registry shard
// when sustained load exceeds a high-water mark, drains the coldest
// spawned shard when it sustains below a low-water mark, and announces
// every change as a resharding epoch (directory.Server SetEpoch pushes
// "epoch E, shards S" to watching clients, which migrate their
// registrations in one batched round — see internal/directory). A drained
// shard's server outlives its flip by DrainGrace, which must exceed the
// clients' overlap window so no client still double-reading the old shard
// set dials a dead server.
package reshard

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// Member is one registry shard: the stable name that places its arcs on
// the consistent-hash ring, the address clients dial, and the server whose
// Stats feed the load loop and whose SetEpoch reaches its watchers.
type Member struct {
	Name   string
	Addr   string
	Server *directory.Server
}

// Config makes a Deployment elastic.
type Config struct {
	// Clock drives the sampling ticks and the retire grace timers (nil
	// means the wall clock). Scenario runs pass the shared virtual clock.
	Clock clock.Clock
	// Interval is the load sampling period. Required.
	Interval time.Duration
	// HighWater and LowWater are per-shard load thresholds in lookups
	// per interval: mean load above HighWater for Sustain consecutive
	// intervals adds a shard; mean load below LowWater for Sustain
	// intervals drains one, the coldest spawned shard going first.
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
	// before the deployment acts (default 2) — one hot sample is noise,
	// not a flash crowd.
	Sustain int
	// MaxShards caps the shard count (default: the bootstrap count). The
	// bootstrap shards are the floor: they are the addresses every booting
	// client dials, so they never drain, even when one is the coldest.
	MaxShards int
	// DrainGrace is how long a drained shard's server outlives its flip
	// before it closes (default 2×Interval). It must exceed the clients'
	// overlap window (their lease refresh interval): during that window
	// clients still read — and withdraw stale copies from — the drained
	// shard.
	DrainGrace time.Duration
	// Retire, when non-nil, is told of every shard server the deployment
	// closes: a drained one DrainGrace after its flip (or at Close), every
	// live one at Close. A crashed server is not retired.
	Retire func(Member)
	// Observer, when non-nil, receives EpochFlip, ShardAdded and
	// ShardDrained events.
	Observer observe.Observer
}

// check validates cfg for a deployment of bootstrap shards and fills in
// its defaults.
func (cfg Config) check(bootstrap int) (Config, error) {
	if cfg.Sustain <= 0 {
		cfg.Sustain = 2
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = bootstrap
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * cfg.Interval
	}
	switch {
	case cfg.Interval <= 0:
		return cfg, errors.New("reshard: autoscale needs a positive Interval")
	case bootstrap < 1:
		return cfg, fmt.Errorf("reshard: autoscale needs at least one bootstrap shard, got %d", bootstrap)
	case cfg.HighWater <= cfg.LowWater:
		return cfg, fmt.Errorf("reshard: HighWater (%g) must exceed LowWater (%g)", cfg.HighWater, cfg.LowWater)
	case cfg.LowWater < 0:
		return cfg, fmt.Errorf("reshard: LowWater must be >= 0, got %g", cfg.LowWater)
	case cfg.MaxShards < bootstrap:
		return cfg, fmt.Errorf("reshard: MaxShards (%d) below the %d bootstrap shards", cfg.MaxShards, bootstrap)
	}
	return cfg, nil
}

// load is one server's cumulative demand, measured as lookups alone.
// Registrations are deliberately excluded: an epoch flip repopulates the
// new shard set via refresh-flagged register batches that the receiving
// shard cannot tell from first-time demand, so counting registers feeds
// every flip's migration surge back into the load signal — a storm that
// flips forever. Lease refreshes are excluded for the complementary
// reason: they repeat every interval for as long as suppliers exist and
// would hold a drained crowd's shards above the low-water mark forever.
func load(s *directory.Server) int64 {
	return s.Stats().Lookups
}

// epochLocked builds the announcement of the current epoch and lists the
// live shards' servers that are up to hear it.
func (d *Deployment) epochLocked() (transport.DirEpoch, []*directory.Server) {
	ep := transport.DirEpoch{Epoch: d.epoch, Shards: make([]transport.DirShard, len(d.live))}
	var up []*directory.Server
	for j, i := range d.live {
		s := d.shards[i]
		ep.Shards[j] = transport.DirShard{Name: s.Name, Addr: s.Addr}
		if s.Server != nil {
			up = append(up, s.Server)
		}
	}
	return ep, up
}

// announce pushes ep to every server in to.
func announce(ep transport.DirEpoch, to []*directory.Server) {
	for _, s := range to {
		s.SetEpoch(ep)
	}
}

// tick samples every live shard's load delta and applies the watermark
// policy. It runs as a clock callback and must not block: sampling reads
// atomics, and a flip (which boots servers and pushes epochs over the
// network) runs on its own goroutine while ticks keep sampling.
func (d *Deployment) tick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.timer = d.clk.AfterFunc(d.cfg.Interval, d.tick)
	if d.flipping {
		return // the shard set is changing under this tick; sample next round
	}
	var total int64
	// The bootstrap shards are never drain candidates: they hold the
	// lowest indices, so the drain victim is the coldest shard at or past
	// index pinned — and a drain needs more than the pinned live.
	sampled, coldest, coldLoad := 0, -1, int64(0)
	for _, i := range d.live {
		s := &d.shards[i]
		if s.Server == nil {
			continue // crashed: nothing to sample until it restarts
		}
		cum := load(s.Server)
		delta := cum - s.last
		s.last = cum
		total += delta
		sampled++
		if i >= d.pinned && (coldest < 0 || delta < coldLoad) {
			coldest, coldLoad = i, delta
		}
	}
	if sampled == 0 {
		return
	}
	mean := float64(total) / float64(sampled)
	if mean > d.cfg.HighWater {
		d.hot++
	} else {
		d.hot = 0
	}
	if mean < d.cfg.LowWater && len(d.live) > 1 {
		d.cold++
	} else {
		d.cold = 0
	}
	var flip func()
	switch {
	case d.hot >= d.cfg.Sustain && len(d.live) < d.cfg.MaxShards:
		flip = d.grow
	case d.cold >= d.cfg.Sustain && coldest >= 0:
		flip = func() { d.drain(coldest) }
	default:
		return
	}
	d.hot, d.cold, d.flipping = 0, 0, true
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		flip()
	}()
}

// grow boots a shard at the next index — never a drained shard's — and
// flips the epoch to include it.
func (d *Deployment) grow() {
	d.mu.Lock()
	i := len(d.shards)
	d.shards = append(d.shards, shard{})
	d.mu.Unlock()
	m, err := d.start(i, "")
	d.mu.Lock()
	d.flipping = false
	if err != nil || d.closed {
		d.mu.Unlock()
		return
	}
	d.live = append(d.live, i)
	d.epoch++
	ep, up := d.epochLocked()
	d.mu.Unlock()
	d.flipped(observe.ShardAdded, m.Name, len(ep.Shards)-1, ep, up)
}

// drain takes shard i out of the live set and flips the epoch to exclude
// it. The drained server keeps running — and hears the flip too, so its
// watchers learn to leave — until DrainGrace expires.
func (d *Deployment) drain(i int) {
	d.mu.Lock()
	d.flipping = false
	pos := slices.Index(d.live, i)
	if d.closed || pos < 0 {
		d.mu.Unlock()
		return
	}
	d.live = slices.Delete(d.live, pos, pos+1)
	d.epoch++
	ep, up := d.epochLocked()
	if victim := d.shards[i].Server; victim != nil {
		up = append(up, victim)
	}
	d.shards[i].retire = d.clk.AfterFunc(d.cfg.DrainGrace, func() { d.retireDrained(i) })
	d.mu.Unlock()
	d.flipped(observe.ShardDrained, directory.ShardName(i), pos, ep, up)
}

// flipped reports a flip — the shard added or drained at position pos of
// the new or old shard set, then the epoch itself — and pushes the epoch
// to the servers in to.
func (d *Deployment) flipped(typ observe.Type, name string, pos int, ep transport.DirEpoch, to []*directory.Server) {
	observe.Emit(d.cfg.Observer, observe.Event{Component: "reshard", Type: typ, Object: name, Shard: pos, Epoch: ep.Epoch})
	observe.Emit(d.cfg.Observer, observe.Event{Component: "reshard", Type: observe.EpochFlip, Epoch: ep.Epoch, Count: len(ep.Shards)})
	announce(ep, to)
}

// retireDrained runs when drained shard i's grace period expires. Closing
// its server may block, so that leaves the clock callback at once.
func (d *Deployment) retireDrained(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.shards[i]
	s.retire = nil
	if d.closed || s.Server == nil {
		return
	}
	m := s.Member
	s.Server = nil
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.retire(m)
	}()
}
