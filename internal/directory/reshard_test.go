package directory

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// TestShardRingRemapProperty pins the consistent-hashing contract the
// epoch protocol depends on: growing an n-shard ring to n+1 shards moves
// approximately 1/(n+1) of the keys (within a 5-sigma binomial
// envelope), and every moved key moves TO the new shard — no key shuffles
// between surviving shards, so a flip's migration batch is exactly the
// new shard's arc.
func TestShardRingRemapProperty(t *testing.T) {
	const keys = 4096
	for n := 1; n <= 7; n++ {
		old, err := NewShardRingOf(1, DefaultShardNames(n))
		if err != nil {
			t.Fatal(err)
		}
		grown, err := NewShardRingOf(2, DefaultShardNames(n+1))
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("peer-%d", i)
			a, b := old.Owner(key), grown.Owner(key)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("n=%d: key %q moved from shard %d to surviving shard %d (only the new shard %d may gain keys)",
					n, key, a, b, n)
			}
		}
		// The moved fraction is the new shard's total arc share. Its
		// variance has two parts: the key-sampling noise (binomial over
		// 4096 keys) and the arc-share noise of placing ShardPoints
		// hash positions among the ring's (n+1)*ShardPoints points —
		// under the uniform-hash model the share is Beta(K, nK)
		// distributed, std ~ sqrt(p(1-p)/(M+1)). The arc term dominates
		// at the canonical point count.
		p := 1.0 / float64(n+1)
		mean := float64(keys) * p
		m := float64((n + 1) * ShardPoints)
		arcStd := float64(keys) * math.Sqrt(p*(1-p)/(m+1))
		sigma := math.Sqrt(float64(keys)*p*(1-p) + arcStd*arcStd)
		if diff := math.Abs(float64(moved) - mean); diff > 5*sigma {
			t.Errorf("n=%d->%d: %d/%d keys moved, want %.0f±%.0f (5σ)", n, n+1, moved, keys, mean, 5*sigma)
		} else {
			t.Logf("n=%d->%d: %d/%d keys moved (ideal %.0f, σ=%.1f)", n, n+1, moved, keys, mean, sigma)
		}
	}
}

// TestShardRingOfValidation: the named-set constructor rejects a negative
// epoch and an empty, blank or duplicate name, and the canonical
// NewShardRing is exactly NewShardRingOf over the default names.
func TestShardRingOfValidation(t *testing.T) {
	names := DefaultShardNames(3)
	if _, err := NewShardRingOf(-1, names); err == nil {
		t.Error("negative epoch accepted")
	}
	if _, err := NewShardRingOf(0, nil); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := NewShardRingOf(0, []string{"a", "", "c"}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := NewShardRingOf(0, []string{"a", "b", "a"}); err == nil {
		t.Error("duplicate shard name accepted")
	}

	canonical, err := NewShardRing(3)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewShardRingOf(0, names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("peer-%d", i)
		if canonical.Owner(key) != explicit.Owner(key) {
			t.Fatalf("NewShardRing and NewShardRingOf disagree on %q", key)
		}
	}
	if got := canonical.Names(); len(got) != 3 || got[0] != "shard-0" {
		t.Errorf("Names() = %v", got)
	}
	if ep, err := NewShardRingOf(7, names); err != nil || ep.Epoch() != 7 {
		t.Errorf("Epoch() = %d (err %v), want 7", ep.Epoch(), err)
	}
}

// elasticFixture extends the shard fixture with epoch-watching clients
// and a helper to flip the deployment by hand (the controller does this
// in production; these tests pin the client/server protocol alone).
func elasticClient(f *shardFixture, seed int64, obs observe.Observer) *ShardedClient {
	f.t.Helper()
	return elasticClientEvery(f, seed, obs, 10*time.Millisecond)
}

// elasticClientEvery is elasticClient with an explicit lease period, which
// is also the length of the post-flip overlap window.
func elasticClientEvery(f *shardFixture, seed int64, obs observe.Observer, refresh time.Duration) *ShardedClient {
	f.t.Helper()
	c, err := NewShardedClient(ShardedConfig{
		Addrs:       f.addrs,
		Names:       DefaultShardNames(len(f.addrs)),
		Epoch:       1,
		WatchEpochs: true,
		Network:     f.vnet.Host("client"),
		Clock:       f.clk,
		Refresh:     refresh,
		Seed:        seed,
		Observer:    obs,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { c.Close() })
	return c
}

// epochOf builds the wire announcement for the fixture's first n shards.
func epochOf(f *shardFixture, epoch int64, n int) transport.DirEpoch {
	shards := make([]transport.DirShard, n)
	for i := 0; i < n; i++ {
		shards[i] = transport.DirShard{Name: fmt.Sprintf("shard-%d", i), Addr: f.addrs[i]}
	}
	return transport.DirEpoch{Epoch: epoch, Shards: shards}
}

func waitFor(f *shardFixture, what string, cond func() bool) {
	f.t.Helper()
	for i := 0; i < 400; i++ {
		if cond() {
			return
		}
		f.clk.Sleep(2 * time.Millisecond)
	}
	f.t.Fatalf("timed out waiting for %s", what)
}

// TestEpochFlipMigratesRegistrations: a pushed epoch makes the client
// re-register every moved registration at its new owner in one batched
// round (long before any lease refresh would), and withdraw the stale
// copy from the old owner once the overlap window closes.
func TestEpochFlipMigratesRegistrations(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)

	// The client starts on a two-shard deployment; shard 2 exists but is
	// not yet part of the epoch.
	addrs3 := f.addrs
	f.addrs = f.addrs[:2]
	moveEvents := make(chan observe.Event, 16)
	c := elasticClient(f, 1, observe.Func(func(ev observe.Event) {
		if ev.Type == observe.ReshardMove {
			moveEvents <- ev
		}
	}))
	f.addrs = addrs3

	oldRing, _ := NewShardRingOf(1, DefaultShardNames(2))
	newRing, _ := NewShardRingOf(2, DefaultShardNames(3))
	var movedIDs, stayIDs []string
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(ctx, reg(id)); err != nil {
			t.Fatal(err)
		}
		if oldRing.Owner(id) != newRing.Owner(id) {
			movedIDs = append(movedIDs, id)
		} else {
			stayIDs = append(stayIDs, id)
		}
	}
	if len(movedIDs) == 0 || len(stayIDs) == 0 {
		t.Fatalf("degenerate key split: %d moved, %d stayed", len(movedIDs), len(stayIDs))
	}

	// Any shard may push the flip; the client is subscribed to both.
	f.shards[0].SetEpoch(epochOf(f, 2, 3))
	waitFor(f, "epoch adoption", func() bool { return c.Epoch() == 2 })

	var move observe.Event
	select {
	case move = <-moveEvents:
	case <-time.After(5 * time.Second):
		t.Fatal("no ReshardMove event after the flip")
	}
	if move.Epoch != 2 || move.Count != len(movedIDs) {
		t.Errorf("ReshardMove epoch=%d count=%d, want epoch=2 count=%d", move.Epoch, move.Count, len(movedIDs))
	}

	// Every moved registration is on its new owner now — without waiting
	// for a lease refresh.
	for _, id := range movedIDs {
		if !f.shards[newRing.Owner(id)].Has(id, "") {
			t.Errorf("moved %s not on new owner shard %d after flip", id, newRing.Owner(id))
		}
	}
	for _, id := range stayIDs {
		if !f.shards[newRing.Owner(id)].Has(id, "") {
			t.Errorf("unmoved %s missing from its owner", id)
		}
	}
	// The stale copies survive through the overlap window (a slower
	// client still fans out over the old set), then get withdrawn.
	waitFor(f, "stale-copy withdrawal", func() bool {
		for _, id := range movedIDs {
			if f.shards[oldRing.Owner(id)].Has(id, "") {
				return false
			}
		}
		return true
	})
	// Lease refreshes now route by the new ring: unregister one moved
	// peer and make sure no refresh resurrects it anywhere.
	if err := c.Unregister(ctx, movedIDs[0], ""); err != nil {
		t.Fatal(err)
	}
	f.clk.Sleep(50 * time.Millisecond)
	for i, s := range f.shards {
		if s.Has(movedIDs[0], "") {
			t.Errorf("unregistered %s still on shard %d", movedIDs[0], i)
		}
	}
}

// TestEpochOverlapWindowLookup pins the double-read path: a lookup
// issued between the epoch push and the (other clients') re-registration
// completing still finds every supplier, because the fan-out covers the
// old owners alongside the new ones for a full overlap window. The
// suppliers here are registered by a plain per-shard client the flip
// never migrates — exactly a slow client's un-migrated registrations.
func TestEpochOverlapWindowLookup(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)

	addrs3 := f.addrs
	f.addrs = f.addrs[:2]
	c := elasticClient(f, 1, nil)
	f.addrs = addrs3

	oldRing, _ := NewShardRingOf(1, DefaultShardNames(2))
	newRing, _ := NewShardRingOf(2, DefaultShardNames(3))
	want := make(map[string]bool)
	direct := make([]*Client, len(f.addrs))
	for i, a := range f.addrs {
		direct[i] = NewClientOn(f.vnet.Host("other"), a)
		defer direct[i].Close()
	}
	moved := 0
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("ext-%d", i)
		if err := direct[oldRing.Owner(id)].Register(ctx, reg(id)); err != nil {
			t.Fatal(err)
		}
		want[id] = true
		if oldRing.Owner(id) != newRing.Owner(id) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key's owner moves across the flip; the test would prove nothing")
	}

	f.shards[1].SetEpoch(epochOf(f, 2, 3))
	waitFor(f, "epoch adoption", func() bool { return c.Epoch() == 2 })

	// Inside the overlap window: every supplier must be reachable even
	// though the moved ones exist only on their old owners.
	got, err := c.Candidates(ctx, "", len(want)+4, "")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(got))
	for _, cand := range got {
		seen[cand.ID] = true
	}
	for id := range want {
		if !seen[id] {
			t.Errorf("supplier %s lost mid-flip (owner moved: %v)", id, oldRing.Owner(id) != newRing.Owner(id))
		}
	}
}

// TestShardedCloseMidFlip is the regression test for shutdown during an
// epoch migration: Close must cancel the armed lease-refresh timer and
// the in-flight re-registration batch, so nothing lands on the new owner
// after Close returns. The test parks the migration on the client's send
// lock — the exact moment its batch is about to leave — closes the
// client, and verifies the batch was abandoned.
func TestShardedCloseMidFlip(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)

	addrs3 := f.addrs
	f.addrs = f.addrs[:2]
	c := elasticClient(f, 1, nil)
	f.addrs = addrs3

	oldRing, _ := NewShardRingOf(1, DefaultShardNames(2))
	newRing, _ := NewShardRingOf(2, DefaultShardNames(3))
	var movedIDs []string
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(ctx, reg(id)); err != nil {
			t.Fatal(err)
		}
		if oldRing.Owner(id) != newRing.Owner(id) {
			movedIDs = append(movedIDs, id)
		}
	}
	if len(movedIDs) == 0 {
		t.Fatal("no registration moves across the flip")
	}

	// Park the migration: it adopts the epoch, then blocks on sendMu
	// before its first batch.
	c.sendMu.Lock()
	f.shards[0].SetEpoch(epochOf(f, 2, 3))
	waitFor(f, "epoch adoption", func() bool { return c.Epoch() == 2 })

	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	// Close marks the client closed synchronously; wait for that, then
	// release the parked migration into the closed check.
	waitFor(f, "close flag", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed
	})
	c.sendMu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind the in-flight migration")
	}

	// The abandoned batch must not have resurrected anything on the new
	// owner, and the cancelled lease timer must never re-send: the
	// registries stay exactly as the pre-flip sends left them.
	f.clk.Sleep(100 * time.Millisecond)
	for _, id := range movedIDs {
		owner := newRing.Owner(id)
		if owner == oldRing.Owner(id) {
			continue
		}
		if f.shards[owner].Has(id, "") {
			t.Errorf("closed client's migration landed %s on shard %d", id, owner)
		}
	}
	stats := f.shards[0].Stats()
	f.clk.Sleep(100 * time.Millisecond)
	if after := f.shards[0].Stats(); after.Refreshes != stats.Refreshes {
		t.Errorf("lease refreshes kept flowing after Close: %d -> %d", stats.Refreshes, after.Refreshes)
	}
}

// TestEpochWatchSubscription: the subscription's immediate reply carries
// the server's current epoch, so a client booting mid-flip converges on
// its first read; stale pushes are ignored.
func TestEpochWatchSubscription(t *testing.T) {
	f := newShardFixture(t, 3)
	f.shards[0].SetEpoch(epochOf(f, 5, 3))

	// A client booted at epoch 1 with a stale two-shard view adopts the
	// pushed epoch 5 from its very first subscription reply.
	addrs3 := f.addrs
	f.addrs = f.addrs[:2]
	c := elasticClient(f, 1, nil)
	f.addrs = addrs3
	waitFor(f, "boot-time epoch catch-up", func() bool { return c.Epoch() == 5 })
	if got := c.Shards(); got != 3 {
		t.Errorf("client routes over %d shards, want 3", got)
	}

	// A stale announcement cannot roll the deployment back.
	f.shards[0].SetEpoch(epochOf(f, 3, 2))
	f.clk.Sleep(30 * time.Millisecond)
	if got := c.Epoch(); got != 5 {
		t.Errorf("stale epoch rolled the client back to %d", got)
	}
	if got := f.shards[0].Epoch().Epoch; got != 5 {
		t.Errorf("stale epoch rolled the server back to %d", got)
	}
}

// twoThenThree boots an elastic client with a one-second lease on the
// fixture's first two shards, registers n leases through it and returns the
// client with the IDs whose owner differs between the two-shard and the
// three-shard ring, and both rings.
func twoThenThree(t *testing.T, f *shardFixture, n int) (c *ShardedClient, moved []string, two, three *ShardRing) {
	t.Helper()
	addrs3 := f.addrs
	f.addrs = f.addrs[:2]
	c = elasticClientEvery(f, 1, nil, time.Second)
	f.addrs = addrs3
	two, _ = NewShardRingOf(1, DefaultShardNames(2))
	three, _ = NewShardRingOf(2, DefaultShardNames(3))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(context.Background(), reg(id)); err != nil {
			t.Fatal(err)
		}
		if two.Owner(id) != three.Owner(id) {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no registration moves across the flip")
	}
	return c, moved, two, three
}

// TestBackToBackFlipKeepsRegistration: a registration whose owner moves
// away and back inside one overlap window (2 -> 3 -> 2 shards) must still
// be on its owner when the window closes. Closing the window withdraws the
// copies the lease no longer needs, and after the bounce the pre-flip owner
// is the current owner again: its copy is not one of them.
func TestBackToBackFlipKeepsRegistration(t *testing.T) {
	f := newShardFixture(t, 3)
	c, bounced, two, _ := twoThenThree(t, f, 24)

	f.shards[0].SetEpoch(epochOf(f, 2, 3))
	f.clk.Sleep(20 * time.Millisecond)
	f.shards[0].SetEpoch(epochOf(f, 3, 2))
	f.clk.Sleep(1100 * time.Millisecond) // past the (re-armed) overlap window
	if got := c.Epoch(); got != 3 {
		t.Fatalf("client at epoch %d, want 3", got)
	}
	lost := 0
	for _, id := range bounced {
		if !f.shards[two.Owner(id)].Has(id, "") {
			lost++
			t.Errorf("%s missing from its owner shard %d after the bounce", id, two.Owner(id))
		}
		if f.shards[2].Has(id, "") {
			t.Errorf("%s still on shard 2, which left the deployment", id)
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d bounced registrations lost", lost, len(bounced))
	}
}

// TestEpochOverlapUnregisterLeavesNoCopy: an Unregister issued during an
// overlap window withdraws every copy before it returns — the pre-flip
// owner's too, which every double-reading client still queries.
func TestEpochOverlapUnregisterLeavesNoCopy(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c, moved, two, three := twoThenThree(t, f, 24)

	f.shards[0].SetEpoch(epochOf(f, 2, 3))
	id := moved[0]
	waitFor(f, "migration", func() bool { return f.shards[three.Owner(id)].Has(id, "") })
	if !f.shards[two.Owner(id)].Has(id, "") {
		t.Fatal("pre-flip copy withdrawn before the overlap window closed")
	}
	if err := c.Unregister(ctx, id, ""); err != nil {
		t.Fatal(err)
	}
	for i, s := range f.shards {
		if s.Has(id, "") {
			t.Errorf("unregistered %s still on shard %d", id, i)
		}
	}
	// And it stays gone past the window's close and a lease refresh.
	f.clk.Sleep(1100 * time.Millisecond)
	for i, s := range f.shards {
		if s.Has(id, "") {
			t.Errorf("unregistered %s back on shard %d after the window closed", id, i)
		}
	}
}

// TestEpochLegOfReleasedShardIsNotAFailure: a fan-out that snapshotted the
// overlap set can reach a drained shard's pooled client after the end of
// the window released it. That leg contributes nothing and is not reported
// as a failed shard: the shard was never dialed, it had left the set.
func TestEpochLegOfReleasedShardIsNotAFailure(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 2)
	var failedLegs atomic.Int64
	c := elasticClient(f, 1, observe.Func(func(ev observe.Event) {
		if ev.Type == observe.ShardLookup && ev.Err != nil {
			failedLegs.Add(1)
		}
	}))
	for i := 0; i < 4; i++ {
		if err := c.Register(ctx, reg(fmt.Sprintf("sup-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain shard-1: the flip opens the overlap window, in which a fan-out
	// still reads both shards.
	f.shards[0].SetEpoch(epochOf(f, 2, 1))
	waitFor(f, "epoch adoption", func() bool { return c.Epoch() == 2 })
	c.mu.Lock()
	if c.prev == nil {
		c.mu.Unlock()
		t.Fatal("overlap window already closed")
	}
	// What gcPoolLocked does when the window closes, with this fan-out's
	// legs already taken.
	c.pool[f.addrs[1]].Close()
	c.mu.Unlock()
	cands, err := c.Candidates(ctx, "", 4, "")
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cands) == 0 {
		t.Error("the surviving shard's candidates were lost")
	}
	if n := failedLegs.Load(); n != 0 {
		t.Errorf("%d failed fan-out legs, want 0: the released shard had left the set", n)
	}
}
