package directory

import (
	"context"
	"net"

	"p2pstream/internal/clock"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// applyEpoch adopts one pushed resharding epoch: build the new ring over
// the pooled clients, swap it in, keep the old set readable for one
// overlap window, and settle the ledger — every lease whose owner moved
// lands on its new owner in one batched round. Stale or malformed epochs
// are ignored — any shard may push, and pushes may race.
func (c *ShardedClient) applyEpoch(ep transport.DirEpoch) {
	if len(ep.Shards) == 0 {
		return
	}
	names := make([]string, len(ep.Shards))
	addrs := make([]string, len(ep.Shards))
	for i, sh := range ep.Shards {
		if sh.Name == "" || sh.Addr == "" {
			return
		}
		names[i], addrs[i] = sh.Name, sh.Addr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || ep.Epoch <= c.cur.ring.Epoch() {
		return
	}
	ring, err := NewShardRingOf(ep.Epoch, names)
	if err != nil {
		return
	}
	set := c.newSetLocked(ring, addrs)
	c.prev, c.cur = c.cur, set
	start := c.clk.Now()
	if c.overlap != nil {
		c.overlap.Stop()
	}
	c.overlap = c.clk.AfterFunc(c.refresh, func() { c.endOverlap(set) })
	if c.watching {
		c.syncWatchesLocked(set)
	}
	c.settleAllLocked(false, func(placed int) {
		observe.Emit(c.obs, observe.Event{
			Component: "sharded-directory",
			Type:      observe.ReshardMove,
			Epoch:     ep.Epoch,
			Count:     placed,
			Latency:   c.clk.Since(start),
		})
	})
}

// endOverlap closes the post-flip overlap window: the pre-flip shard set
// stops being read, the ledger settles — which now withdraws every copy
// not on its lease's current owner — and clients of shards no longer
// referenced are released. A newer flip re-arms the window instead.
func (c *ShardedClient) endOverlap(set *shardSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.cur != set {
		return
	}
	c.prev = nil
	c.settleAllLocked(false, func(int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.closed {
			c.gcPoolLocked()
		}
	})
}

// gcPoolLocked closes and forgets pooled clients for addresses no longer
// referenced by the current set, the overlap set, or a lease's placed
// copies — the cleanup tail of a drain flip.
func (c *ShardedClient) gcPoolLocked() {
	keep := make(map[string]bool, len(c.pool))
	for _, a := range c.cur.addrs {
		keep[a] = true
	}
	if c.prev != nil {
		for _, a := range c.prev.addrs {
			keep[a] = true
		}
	}
	for _, l := range c.leases {
		for _, a := range l.placed {
			keep[a] = true
		}
	}
	for a, cl := range c.pool {
		if !keep[a] {
			cl.Close()
			delete(c.pool, a)
		}
	}
}

// syncWatchesLocked reconciles the watch loops with one shard set: new
// addresses gain a subscription, addresses that left the set (a drained
// shard) lose theirs — so no connection outlives the shard's retirement.
func (c *ShardedClient) syncWatchesLocked(set *shardSet) {
	want := make(map[string]bool, len(set.addrs))
	for _, a := range set.addrs {
		want[a] = true
	}
	for a, halt := range c.watches {
		if !want[a] {
			halt()
			delete(c.watches, a)
		}
	}
	for _, a := range set.addrs {
		if _, ok := c.watches[a]; ok {
			continue
		}
		ctx, halt := context.WithCancel(context.Background())
		c.watches[a] = halt
		c.wg.Add(1)
		go c.watchLoop(ctx, a)
	}
}

// watchLoop subscribes one shard for epoch pushes and applies every push
// it reads, redialing (with a half-refresh backoff on the client's clock)
// until ctx is cancelled, which also closes the connection under a pending
// read. The subscription reply itself carries the shard's current epoch,
// so a client that boots mid-flip converges on its first read.
func (c *ShardedClient) watchLoop(ctx context.Context, addr string) {
	defer c.wg.Done()
	for ctx.Err() == nil {
		if conn, err := c.network.Dial(addr); err == nil {
			release := netx.Guard(ctx, conn)
			if err := transport.Write(conn, transport.KindDirEpochWatch, transport.DirEpochWatch{}); err == nil {
				c.readEpochs(conn)
			}
			release()
			conn.Close()
		}
		_ = clock.SleepCtx(ctx, c.clk, c.refresh/2) // cancelled: the loop condition ends it
	}
}

// readEpochs applies every epoch pushed on a subscribed connection until it
// fails or carries anything else.
func (c *ShardedClient) readEpochs(conn net.Conn) {
	rd := transport.NewReader(conn)
	defer rd.Close()
	for {
		env, err := rd.Next()
		if err != nil || env.Kind != transport.KindDirEpoch {
			return
		}
		var ep transport.DirEpoch
		if err := env.Decode(&ep); err != nil {
			return
		}
		c.applyEpoch(ep)
	}
}
