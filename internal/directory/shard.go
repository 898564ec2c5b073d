// Sharded directory discovery: the centralized registry split across
// several Server instances by consistent hashing, behind the very same
// node.Discovery interface the single server and the chord ring implement.
//
// A ShardRing places every shard at a set of deterministic positions on
// the 64-bit identifier circle shared with internal/chord (chord.HashKey);
// a supplier key is owned by the shard whose position is the key's
// successor (chord.InHalfOpen). A ShardedClient routes Register and
// Unregister to the owning shard and fans Candidates out across all
// shards, merging the replies weighted by each shard's registry size (the
// Len the lookup reply carries) so the down-sample stays uniform over the
// union of registries — a supplier on a tiny shard is not overweighted.
// Shards fail independently: a dead shard costs candidate diversity, never
// the lookup — and because registrations are lease-style (periodically
// re-sent with Register.Refresh), a shard that crashed and returned with
// an empty registry is repopulated within one refresh interval.
//
// The deployment is elastic: rings carry a resharding epoch and an
// explicit named shard set, and a client with WatchEpochs set subscribes
// to dir-epoch pushes from its shards. On a flip it re-registers every
// held registration whose owner moved in one batched round (converging
// orders of magnitude faster than the lease period) and double-reads
// candidates from the old and new shard sets for one overlap window, so
// no lookup misses mid-migration; the old copies are withdrawn when the
// window closes.
//
// The ring is in ring.go; this file holds the client and its fan-out
// merge; ledger.go holds the registration ledger, whose settle is the one
// place a registration frame leaves from; epoch.go adopts pushed epochs.
package directory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/errs"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// defaultRefresh is the lease re-registration period of a ShardedClient.
// Live TCP deployments refresh every few seconds; scenario runs on the
// virtual clock pass an explicit faster interval.
const defaultRefresh = 2 * time.Second

// ShardedConfig parameterizes a sharded directory client.
type ShardedConfig struct {
	// Addrs are the shard server addresses, in shard order. Every client
	// of one deployment must list the same addresses in the same order —
	// the ring maps keys to indices of this slice.
	Addrs []string
	// Names are the stable shard names, in shard order (default
	// DefaultShardNames). Ring arcs hash from names, so every client of
	// one deployment must agree on them; an elastic deployment's
	// controller assigns each spawned shard a fresh name for life.
	Names []string
	// Epoch is the resharding epoch the client boots into (0 for a static
	// deployment). A WatchEpochs client adopts newer epochs as its shards
	// push them.
	Epoch int64
	// WatchEpochs subscribes the client to dir-epoch pushes from every
	// current shard: on a flip it re-registers moved registrations in one
	// batched round and double-reads candidates from the old and new
	// shard sets for one refresh interval.
	WatchEpochs bool
	// Network provides connections (nil means real TCP).
	Network netx.Network
	// Clock schedules lease refreshes and times fan-out legs (nil means
	// the wall clock).
	Clock clock.Clock
	// Refresh is the lease re-registration period (default 2s). Each
	// refresh re-sends every live registration to its owning shard with
	// Register.Refresh set, repopulating shards that crashed and returned.
	// It also sizes the post-flip overlap window.
	Refresh time.Duration
	// Seed drives the deterministic down-sampling of merged candidates.
	Seed int64
	// Observer, when non-nil, receives one ShardLookup event per fan-out
	// leg (the shard index, the leg's round-trip latency on Clock, and the
	// per-shard failure if the leg failed) and one ReshardMove event per
	// completed epoch migration.
	Observer observe.Observer
}

// shardSet is one epoch's routing state: the ring plus the addresses and
// pooled clients its shard indices map to. Sets are immutable once
// published; a flip swaps the whole set.
type shardSet struct {
	ring    *ShardRing
	addrs   []string
	clients []*Client
}

// ShardedClient is the sharded realization of node.Discovery: consistent-
// hash routing for registrations, all-shard fan-out for candidates,
// per-shard failure isolation, and (with WatchEpochs) live migration
// across resharding epochs. Create with NewShardedClient; the owning
// node Closes it.
type ShardedClient struct {
	clk      clock.Clock
	refresh  time.Duration
	obs      observe.Observer
	network  netx.Network
	watching bool

	mu  sync.Mutex
	rng *rand.Rand
	// leases is the registration ledger, keyed by peer ID + object (regKey):
	// a peer supplying several objects holds one lease per object, all
	// routed to the shard owning the peer ID so shard assignment stays a
	// function of the peer alone. See settle.
	leases map[string]*lease
	// cur is the current epoch's shard set; prev is the pre-flip set,
	// non-nil only during the overlap window (Candidates reads both).
	cur     *shardSet
	prev    *shardSet
	overlap clock.Timer
	// pool shares one Client per shard address across epochs, so a flip
	// keeps every unchanged shard's persistent connection.
	pool    map[string]*Client
	watches map[string]context.CancelFunc // halts one shard's epoch watch
	timer   clock.Timer
	closed  bool
	wg      sync.WaitGroup
	// sendMu is held by settle across planning and sending, so every
	// registration frame leaves in the order the ledger was read.
	sendMu sync.Mutex
}

// NewShardedClient returns a discovery client over the given shard set.
func NewShardedClient(cfg ShardedConfig) (*ShardedClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("directory: sharded client needs at least one shard address")
	}
	for i, a := range cfg.Addrs {
		if a == "" {
			return nil, fmt.Errorf("directory: shard %d has an empty address", i)
		}
	}
	names := cfg.Names
	if len(names) == 0 {
		names = DefaultShardNames(len(cfg.Addrs))
	}
	if len(names) != len(cfg.Addrs) {
		return nil, fmt.Errorf("directory: %d shard names for %d addresses", len(names), len(cfg.Addrs))
	}
	ring, err := NewShardRingOf(cfg.Epoch, names)
	if err != nil {
		return nil, err
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = defaultRefresh
	}
	c := &ShardedClient{
		clk:      clock.Or(cfg.Clock),
		refresh:  cfg.Refresh,
		obs:      cfg.Observer,
		network:  netx.Or(cfg.Network),
		watching: cfg.WatchEpochs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		leases:   make(map[string]*lease),
		pool:     make(map[string]*Client),
		watches:  make(map[string]context.CancelFunc),
	}
	c.mu.Lock()
	c.cur = c.newSetLocked(ring, cfg.Addrs)
	if c.watching {
		c.syncWatchesLocked(c.cur)
	}
	c.mu.Unlock()
	return c, nil
}

// newSetLocked builds one epoch's shard set over the shared client pool.
func (c *ShardedClient) newSetLocked(ring *ShardRing, addrs []string) *shardSet {
	set := &shardSet{
		ring:    ring,
		addrs:   append([]string(nil), addrs...),
		clients: make([]*Client, len(addrs)),
	}
	for i, a := range addrs {
		cl, ok := c.pool[a]
		if !ok {
			cl = NewClientOn(c.network, a)
			c.pool[a] = cl
		}
		set.clients[i] = cl
	}
	return set
}

// Shards returns the current shard count.
func (c *ShardedClient) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.ring.Shards()
}

// Epoch returns the resharding epoch the client currently routes by.
func (c *ShardedClient) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.ring.Epoch()
}

// OwnerOf returns the shard index that currently owns the given peer ID.
func (c *ShardedClient) OwnerOf(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.ring.Owner(id)
}

// shardReply is one fan-out leg's outcome.
type shardReply struct {
	peers   []transport.Candidate
	size    int // the shard's registry size (the merge weight)
	err     error
	latency time.Duration
}

// lookupLeg is one shard the fan-out queries: its client plus the shard
// index reported on ShardLookup events.
type lookupLeg struct {
	shard  int
	client *Client
}

// legsLocked snapshots the fan-out targets: every current shard, plus —
// during the post-flip overlap window — every pre-flip shard not already
// covered. Double-reading old and new owners is what keeps a lookup
// issued between the epoch push and the migration batch landing from
// missing a supplier.
func (c *ShardedClient) legsLocked() []lookupLeg {
	legs := make([]lookupLeg, 0, len(c.cur.clients)+2)
	seen := make(map[string]bool, len(c.cur.clients)+2)
	for _, set := range []*shardSet{c.cur, c.prev} {
		if set == nil {
			continue
		}
		for i, cl := range set.clients {
			if !seen[set.addrs[i]] {
				seen[set.addrs[i]] = true
				legs = append(legs, lookupLeg{shard: i, client: cl})
			}
		}
	}
	return legs
}

// Candidates samples up to m distinct candidates by fanning the lookup out
// to every shard in parallel and merging the replies. A shard that fails
// contributes nothing — candidate diversity degrades, the lookup still
// answers. Only when every shard fails is the fan-out an error
// (ErrAllShardsDown; the sweep retries), and a cancelled context surfaces
// as ctx.Err().
//
// The merge is exactly uniform over the union of shard registries, not
// over the union of replies (which would overweight suppliers on small
// shards by the size ratio): the m slots are allocated across shards by a
// sequential hypergeometric draw over the registry sizes the lookup
// replies carry (transport.Candidates.Len) — the same distribution as
// drawing m suppliers without replacement from the merged registry — and
// each shard's allocation is filled from its reply, itself a uniform
// sample of that registry in random order. Each leg's latency and failure
// is emitted as a ShardLookup event on the configured Observer.
func (c *ShardedClient) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	if m <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	legs := c.legsLocked()
	c.mu.Unlock()
	replies := make([]shardReply, len(legs))
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := c.clk.Now()
			reply, err := legs[i].client.Lookup(ctx, object, m, exclude)
			if errors.Is(err, transport.ErrCacheClosed) {
				// The client released this shard's pooled client while
				// the fan-out ran: the shard left the set when the
				// overlap window ended (or the client closed). It
				// contributes nothing, and no shard failed.
				replies[i].err = err
				return
			}
			replies[i] = shardReply{
				peers:   reply.Peers,
				size:    reply.Len,
				err:     err,
				latency: c.clk.Since(start),
			}
			observe.Emit(c.obs, observe.Event{
				Component: "sharded-directory",
				Type:      observe.ShardLookup,
				Shard:     legs[i].shard,
				Latency:   replies[i].latency,
				Err:       err,
			})
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	// Per-shard entry lists (deduplicated, exclusion applied) plus the
	// registry population each list was uniformly drawn from.
	type pool struct {
		entries []transport.Candidate
		remain  int // undrawn registry entries this shard can still stand for
		taken   int
	}
	pools := make([]pool, 0, len(replies))
	seen := make(map[string]bool)
	failed, total := 0, 0
	var lastErr error
	for _, r := range replies {
		if r.err != nil {
			failed++
			lastErr = r.err
			continue
		}
		p := pool{}
		for _, cand := range r.peers {
			if cand.ID == exclude || seen[cand.ID] {
				continue
			}
			seen[cand.ID] = true
			p.entries = append(p.entries, cand)
		}
		// Guard against servers predating the Len field (and against the
		// exclusion shrinking the reply past the reported size).
		p.remain = r.size
		if p.remain < len(p.entries) {
			p.remain = len(p.entries)
		}
		if len(p.entries) == 0 {
			p.remain = 0
		}
		total += p.remain
		pools = append(pools, p)
	}
	if failed == len(legs) {
		return nil, fmt.Errorf("directory: all %d shards failed: %w: %v", failed, errs.ErrAllShardsDown, lastErr)
	}
	merged := 0
	for i := range pools {
		merged += len(pools[i].entries)
	}
	if merged <= m {
		out := make([]transport.Candidate, 0, merged)
		for i := range pools {
			out = append(out, pools[i].entries...)
		}
		return out, nil
	}
	// Allocate the m slots by sequential hypergeometric draw: each slot
	// picks a shard with probability proportional to its undrawn registry
	// population, exactly as if drawing without replacement from the
	// merged registry; the slot is filled with the shard's next reply
	// entry (a uniform sample in random order). A shard whose reply runs
	// dry drops out of the draw — the rare tail where the server's sample
	// was smaller than the allocation asks for.
	out := make([]transport.Candidate, 0, m)
	c.mu.Lock()
	for i := range pools {
		// A shard's reply order is the server's; shuffle so "the next
		// entry" is a uniform draw from the shard's sample (a server
		// returning its whole registry would otherwise bias the head).
		e := pools[i].entries
		c.rng.Shuffle(len(e), func(a, b int) { e[a], e[b] = e[b], e[a] })
	}
	for len(out) < m && total > 0 {
		r := c.rng.Int63n(int64(total))
		for i := range pools {
			p := &pools[i]
			if r >= int64(p.remain) {
				r -= int64(p.remain)
				continue
			}
			out = append(out, p.entries[p.taken])
			p.taken++
			total -= p.remain // this shard's stake shrinks by one or to zero
			if p.taken == len(p.entries) {
				p.remain = 0
			} else {
				p.remain--
			}
			total += p.remain
			break
		}
	}
	c.mu.Unlock()
	return out, nil
}

// Close stops the lease timer, the epoch watches and the client. In-flight
// refresh, migration and withdrawal sends are cancelled, not waited out:
// every pooled connection is dropped first, so a send stalled against a
// slow shard errors out instead of pinning shutdown — and the closed flag
// guarantees nothing re-sends after Close returns.
func (c *ShardedClient) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		if c.timer != nil {
			c.timer.Stop()
		}
		if c.overlap != nil {
			c.overlap.Stop()
		}
		for _, halt := range c.watches {
			halt()
		}
		for _, cl := range c.pool {
			cl.Close()
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}
