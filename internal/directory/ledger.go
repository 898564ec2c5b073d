package directory

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/errs"
	"p2pstream/internal/transport"
)

// lease is the ledger entry of one (peer, object) registration: what the
// node wants — reg, or nothing once gone — and the shard addresses a copy
// was sent to and not yet withdrawn from. A withdrawn entry stays in the
// ledger until settle has emptied its placed set.
type lease struct {
	reg    transport.Register
	gone   bool
	placed []string
}

// regKey is the ledger key for one (peer, object) registration. The NUL
// separator cannot appear in either component, so keys never collide.
func regKey(id, object string) string { return id + "\x00" + object }

// Register announces a supplying peer to the shard owning its ID and
// starts the lease: the registration is re-sent every refresh interval
// until Unregister or Close, so a shard that crashes and returns empty
// learns the peer again without any action from the node. The first send's
// error is returned — but the lease is live regardless, and a registration
// that failed against a momentarily dead shard lands at the next refresh.
// ctx bounds the first send only; the lease refreshes run in the
// background on the client's clock. A registration no server would accept
// is refused here, before it can fail a whole refresh batch for its shard.
func (c *ShardedClient) Register(ctx context.Context, reg transport.Register) error {
	if reg.ID == "" || reg.Addr == "" || !reg.Class.Valid(bandwidth.MaxClass) {
		return fmt.Errorf("directory: register needs id, addr and a valid class, got %+v", reg)
	}
	reg.Refresh = true // lease semantics: a re-send must upsert, not collide
	key := regKey(reg.ID, reg.Object)
	c.mu.Lock()
	if !c.closed { // a closed client is refused by settle
		l := c.leases[key]
		if l == nil {
			l = &lease{}
			c.leases[key] = l
		}
		l.reg, l.gone = reg, false
		c.armRefreshLocked()
	}
	c.mu.Unlock()
	_, err := c.settle(ctx, []string{key}, true)
	return err
}

// Unregister withdraws the peer from one object's registry: that lease
// stops (leases for the peer's other objects keep refreshing) and every
// shard holding a copy is told — mid-flip that includes the pre-flip
// owner, which double-reading clients still query. An unreachable shard
// makes the withdrawal behave like a crash — the stale entry lingers until
// the shard itself goes.
func (c *ShardedClient) Unregister(ctx context.Context, id, object string) error {
	key := regKey(id, object)
	c.mu.Lock()
	if l := c.leases[key]; l != nil {
		l.gone = true
	}
	c.mu.Unlock()
	_, err := c.settle(ctx, []string{key}, false)
	return err
}

// settle reconciles the given ledger keys (nil means all of them) with the
// shards and is the only function in the package that writes registration
// frames. Under sendMu it plans against one snapshot of the ledger and the
// shard sets, then sends: one RegisterBatch per shard for every live lease
// whose current owner holds no copy yet (for every live lease when refresh
// is set), and a withdrawal from every other holder of a lease that is
// gone or whose overlap window has closed — a slower client still fanning
// out over the old set must keep finding the copy until then. It returns
// the number of leases newly placed on their owner and the first failed
// exchange with a current owner; stale holders are best effort (a drained
// shard may already be retired).
//
// No frame leaves from anywhere else, and none leaves from a plan older
// than the sendMu hold it is sent under, so a change of mind — Unregister,
// Close, a newer epoch — is either already in the plan or settles after
// it: a registration can be neither resurrected nor lost by a stale send.
func (c *ShardedClient) settle(ctx context.Context, keys []string, refresh bool) (int, error) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, fmt.Errorf("directory: sharded client %w", errs.ErrClosed)
	}
	if keys == nil {
		keys = slices.Sorted(maps.Keys(c.leases))
	}
	type drop struct {
		id, object string
		from       *Client
		owner      bool
	}
	cur := c.cur
	sends := make([][]transport.Register, len(cur.addrs)) // by owning shard
	var drops []drop
	fresh := 0 // leases newly placed on their owner
	for _, k := range keys {
		l := c.leases[k]
		if l == nil {
			continue
		}
		shard := cur.ring.Owner(l.reg.ID)
		owner := cur.addrs[shard]
		held := slices.Contains(l.placed, owner)
		if !l.gone && (refresh || !held) {
			sends[shard] = append(sends[shard], l.reg)
			if !held {
				l.placed = append(l.placed, owner)
				fresh++
			}
		}
		if l.gone || c.prev == nil {
			holders := l.placed
			l.placed = l.placed[:0]
			for _, a := range holders {
				if !l.gone && a == owner {
					l.placed = append(l.placed, a)
					continue
				}
				drops = append(drops, drop{l.reg.ID, l.reg.Object, c.pool[a], a == owner})
			}
		}
		if l.gone {
			delete(c.leases, k)
		}
	}
	c.mu.Unlock()

	var first error
	for shard, batch := range sends {
		if err := cur.clients[shard].RegisterBatch(ctx, batch); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range drops {
		if err := w.from.Unregister(ctx, w.id, w.object); err != nil && w.owner && first == nil {
			first = err
		}
	}
	return fresh, first
}

// settleAllLocked runs one whole-ledger settle on a goroutine Close waits
// for (clock callbacks and watch loops must not block on RPC round trips)
// and hands then, if non-nil, the number of leases the pass newly placed —
// unless the client closed first.
func (c *ShardedClient) settleAllLocked(refresh bool, then func(placed int)) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		placed, err := c.settle(context.Background(), nil, refresh)
		if then != nil && !errors.Is(err, errs.ErrClosed) {
			then(placed)
		}
	}()
}

// armRefreshLocked schedules the next lease refresh (idempotent while one
// is pending): every live lease is re-sent to its current owner, one
// exchange per shard, so leases follow epoch flips and repopulate a shard
// that crashed and came back empty. Best effort beyond that: a dead
// shard's refresh fails silently and lands when the shard returns. The
// chain ends by itself once the ledger is empty.
func (c *ShardedClient) armRefreshLocked() {
	if c.closed || c.timer != nil || len(c.leases) == 0 {
		return
	}
	c.timer = c.clk.AfterFunc(c.refresh, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.timer = nil
		if c.armRefreshLocked(); c.timer != nil { // not closed, ledger not empty
			c.settleAllLocked(true, nil)
		}
	})
}
