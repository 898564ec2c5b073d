package directory

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/chord"
	"p2pstream/internal/clock"
	"p2pstream/internal/netx"
	"p2pstream/internal/transport"
)

// shardFixture is a sharded directory deployment on a fresh virtual
// substrate: n shard servers, each on its own host, plus a client host.
type shardFixture struct {
	t      *testing.T
	clk    *clock.Virtual
	vnet   *netx.Virtual
	shards []*Server
	addrs  []string
}

func newShardFixture(t *testing.T, n int) *shardFixture {
	t.Helper()
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	t.Cleanup(stop)
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	f := &shardFixture{t: t, clk: clk, vnet: vnet}
	for i := 0; i < n; i++ {
		f.bootShard(i, ":0")
	}
	return f
}

// bootShard starts shard i's server (on its fixed address when addr names
// one — the rejoin flow re-listens where the clients expect the shard).
func (f *shardFixture) bootShard(i int, addr string) {
	f.t.Helper()
	srv := NewServer(int64(100 + i))
	l, err := f.vnet.Host(fmt.Sprintf("shard%d", i)).Listen(addr)
	if err != nil {
		f.t.Fatalf("shard %d listen: %v", i, err)
	}
	go srv.Serve(l)
	f.t.Cleanup(func() { srv.Close() })
	if i == len(f.shards) {
		f.shards = append(f.shards, srv)
		f.addrs = append(f.addrs, l.Addr().String())
		return
	}
	f.shards[i] = srv
}

func (f *shardFixture) client(seed int64) *ShardedClient {
	f.t.Helper()
	c, err := NewShardedClient(ShardedConfig{
		Addrs:   f.addrs,
		Network: f.vnet.Host("client"),
		Clock:   f.clk,
		Refresh: 10 * time.Millisecond,
		Seed:    seed,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { c.Close() })
	return c
}

func reg(id string) transport.Register {
	return transport.Register{ID: id, Addr: id + ":9", Class: 1}
}

// TestShardRingOwnership: the ring is deterministic across instances,
// covers every shard, and its Owner answers satisfy the chord.InHalfOpen
// successor rule the implementation claims to share with the chord ring.
func TestShardRingOwnership(t *testing.T) {
	a, err := NewShardRing(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewShardRing(3)
	hit := make([]int, 3)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("peer-%d", i)
		own := a.Owner(key)
		if other := b.Owner(key); other != own {
			t.Fatalf("ring instances disagree on %q: %d vs %d", key, own, other)
		}
		hit[own]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d owns no keys out of 2000", s)
		}
	}
	t.Logf("key spread over 3 shards: %v", hit)

	// Every Owner answer is the successor point of the key's hash.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("check-%d", i)
		h := chord.HashKey(key)
		own := a.Owner(key)
		found := false
		for p := range a.points {
			if a.Owns(p, h) {
				if a.points[p].shard != own {
					t.Fatalf("Owner(%q) = %d, but point %d (shard %d) owns it",
						key, own, p, a.points[p].shard)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no ring point owns %q", key)
		}
	}

	if _, err := NewShardRing(0); err == nil {
		t.Error("zero-shard ring accepted")
	}
}

// TestShardedRegisterRoutesToOwner: registrations land on exactly the
// shard the ring names, and the per-shard Stats see them.
func TestShardedRegisterRoutesToOwner(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c := f.client(1)
	want := make([]int, 3)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(ctx, reg(id)); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		want[c.OwnerOf(id)]++
	}
	for i, srv := range f.shards {
		if got := srv.Len(); got != want[i] {
			t.Errorf("shard %d holds %d suppliers, want %d", i, got, want[i])
		}
		stats := srv.Stats()
		if int(stats.Registers) != want[i] {
			t.Errorf("shard %d counted %d registers, want %d", i, stats.Registers, want[i])
		}
	}

	// Unregister routes to the same shard and stops the lease.
	if err := c.Unregister(ctx, "sup-0", ""); err != nil {
		t.Fatal(err)
	}
	owner := c.OwnerOf("sup-0")
	if got := f.shards[owner].Len(); got != want[owner]-1 {
		t.Errorf("shard %d holds %d after unregister, want %d", owner, got, want[owner]-1)
	}
}

// TestShardedCandidatesFanout: the merged sample spans shards, excludes
// the requester, holds no duplicates, and is capped at m.
func TestShardedCandidatesFanout(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c := f.client(1)
	byShard := make([]int, 3)
	for i := 0; i < 15; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(ctx, reg(id)); err != nil {
			t.Fatal(err)
		}
		byShard[c.OwnerOf(id)]++
	}
	for s, n := range byShard {
		if n == 0 {
			t.Fatalf("test IDs leave shard %d empty; pick different IDs", s)
		}
	}

	cands, err := c.Candidates(ctx, "", 8, "sup-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 8 {
		t.Fatalf("sampled %d candidates, want 8", len(cands))
	}
	seen := map[string]bool{}
	shardsHit := map[int]bool{}
	for _, cand := range cands {
		if cand.ID == "sup-3" {
			t.Error("excluded requester sampled")
		}
		if seen[cand.ID] {
			t.Errorf("duplicate candidate %s", cand.ID)
		}
		seen[cand.ID] = true
		shardsHit[c.OwnerOf(cand.ID)] = true
	}
	if len(shardsHit) < 2 {
		t.Errorf("sample of 8 from 15 suppliers hit only shards %v", shardsHit)
	}

	// Asking for more than exist returns everyone except the excluded.
	all, err := c.Candidates(ctx, "", 50, "sup-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 14 {
		t.Errorf("m=50 returned %d candidates, want all 14", len(all))
	}
}

// TestShardedFailureIsolation: with one shard down, Candidates still
// answers from the survivors (diversity degrades, the lookup does not
// fail); only all shards down is an error.
func TestShardedFailureIsolation(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c := f.client(1)
	for i := 0; i < 15; i++ {
		if err := c.Register(ctx, reg(fmt.Sprintf("sup-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.vnet.SetDown("shard1")
	cands, err := c.Candidates(ctx, "", 10, "")
	if err != nil {
		t.Fatalf("lookup with one dead shard: %v", err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates from the surviving shards")
	}
	for _, cand := range cands {
		if c.OwnerOf(cand.ID) == 1 {
			t.Errorf("candidate %s came from the dead shard", cand.ID)
		}
	}

	f.vnet.SetDown("shard0")
	f.vnet.SetDown("shard2")
	if _, err := c.Candidates(ctx, "", 10, ""); err == nil {
		t.Error("all shards dead, lookup still answered")
	}
}

// TestShardedLeaseRepopulatesRebornShard is the crash/rebirth flow end to
// end: a shard dies taking its registry with it, a fresh empty server
// returns on the same address, and the client's lease re-registration
// repopulates it within one refresh interval — no node involvement.
func TestShardedLeaseRepopulatesRebornShard(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c := f.client(1)
	var onShard1 []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("sup-%d", i)
		if err := c.Register(ctx, reg(id)); err != nil {
			t.Fatal(err)
		}
		if c.OwnerOf(id) == 1 {
			onShard1 = append(onShard1, id)
		}
	}
	if len(onShard1) == 0 {
		t.Fatal("test IDs leave shard 1 empty; pick different IDs")
	}

	// Crash shard 1 and let the lease fail against it for a while.
	old := f.shards[1]
	f.vnet.SetDown("shard1")
	old.Close()
	f.clk.Sleep(50 * time.Millisecond)

	// Rebirth: same address, empty registry.
	f.vnet.SetUp("shard1")
	f.bootShard(1, f.addrs[1])
	if got := f.shards[1].Len(); got != 0 {
		t.Fatalf("reborn shard starts with %d entries", got)
	}
	deadline := 100
	for f.shards[1].Len() < len(onShard1) && deadline > 0 {
		f.clk.Sleep(5 * time.Millisecond)
		deadline--
	}
	if got := f.shards[1].Len(); got != len(onShard1) {
		t.Fatalf("reborn shard holds %d suppliers, want %d (%v)", got, len(onShard1), onShard1)
	}

	// A registration made while the owner shard is down fails once but the
	// lease carries it: it lands without any retry by the caller.
	f.vnet.SetDown("shard1")
	lateID := onShard1[0] + "-late"
	for c.OwnerOf(lateID) != 1 {
		lateID += "x"
	}
	if err := c.Register(ctx, reg(lateID)); err == nil {
		t.Error("register against a dead shard reported success")
	}
	f.vnet.SetUp("shard1")
	f.bootShard(1, f.addrs[1])
	deadline = 100
	for !has(f.shards[1], lateID) && deadline > 0 {
		f.clk.Sleep(5 * time.Millisecond)
		deadline--
	}
	if !has(f.shards[1], lateID) {
		t.Error("lease never delivered the registration made during the outage")
	}

	// Unregister ends the lease: the entry stays gone across refreshes.
	if err := c.Unregister(ctx, lateID, ""); err != nil {
		t.Fatal(err)
	}
	f.clk.Sleep(50 * time.Millisecond)
	if has(f.shards[1], lateID) {
		t.Error("unregistered peer re-appeared via a stale lease")
	}
}

// TestShardedEvictionMidInitialRegister pins the race between a
// registration's initial send and a per-object withdrawal (a cache
// eviction unregistering the object): the eviction lands after the lease
// goes live but before the first Register RPC leaves the client. The send
// must be skipped — sent late, it would re-register the evicted object on
// a server that only forgets via unregister, permanently, because the
// lease is already dropped and no refresh follows to correct it. The test
// parks Register in exactly that window by holding the client's send lock.
func TestShardedEvictionMidInitialRegister(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 3)
	c := f.client(1)
	r := reg("sup-evict")
	r.Object = "clip"
	owner := c.OwnerOf(r.ID)

	// Hold the send lock: Register stores its lease, then parks right
	// before the initial send — the window the eviction lands in.
	c.sendMu.Lock()
	regDone := make(chan error, 1)
	go func() { regDone <- c.Register(ctx, r) }()
	waitLease := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			c.mu.Lock()
			l := c.leases[regKey(r.ID, r.Object)]
			ok := l != nil && !l.gone
			c.mu.Unlock()
			if ok == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("lease presence never became %v", want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitLease(true)

	// The eviction: drops the lease immediately, then queues behind the
	// same send lock for its withdrawal RPC.
	unregDone := make(chan error, 1)
	go func() { unregDone <- c.Unregister(ctx, r.ID, r.Object) }()
	waitLease(false)

	c.sendMu.Unlock()
	if err := <-regDone; err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := <-unregDone; err != nil {
		t.Fatalf("unregister: %v", err)
	}

	// Whichever order the two goroutines won the lock in, the object must
	// not exist on its owner shard — the initial send saw the dead lease
	// and skipped. Registers stays 0: the RPC never left the client.
	if has(f.shards[owner], r.ID) {
		t.Error("evicted object's registration reached the shard")
	}
	if n := f.shards[owner].Stats().Registers; n != 0 {
		t.Errorf("owner shard counted %d registers, want 0 (initial send not skipped)", n)
	}
	// And several refresh intervals later it still doesn't: no stale lease
	// survived the eviction.
	f.clk.Sleep(50 * time.Millisecond)
	if has(f.shards[owner], r.ID) {
		t.Error("evicted object re-appeared via a stale lease")
	}
}

// has reports whether the server's registry contains the peer — via a
// lookup wide enough to return everyone.
func has(s *Server, id string) bool {
	c := s.lookup(transport.Lookup{M: 1 << 20})
	for _, p := range c.Peers {
		if p.ID == id {
			return true
		}
	}
	return false
}

// TestShardedClientValidation rejects unusable configurations.
func TestShardedClientValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewShardedClient(ShardedConfig{}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := NewShardedClient(ShardedConfig{Addrs: []string{"a:1", ""}}); err == nil {
		t.Error("empty shard address accepted")
	}
	c, err := NewShardedClient(ShardedConfig{Addrs: []string{"a:1", "b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 {
		t.Errorf("Shards() = %d, want 2", c.Shards())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Register(ctx, reg("x")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("register after close = %v", err)
	}
}

// TestShardedSamplingUniformAcrossShardSizes measures the fan-out merge's
// sampling skew, mirroring chordnet's TestSamplingSkewArcProportional
// (which asserts virtual nodes flatten the ring's arc-proportional skew
// from ~75x to within 2x — both substrates converge on near-uniform
// supplier sampling): with
// registry shards of very different sizes (60 suppliers vs 4), every
// registered supplier must be hit by Candidates at the same rate — the
// merge weights each shard's reply by the registry size its lookup reply
// carries (transport.Candidates.Len), so the down-sample is uniform over
// the union of registries. The unweighted merge this replaces oversampled
// small shards by the size ratio (here ~7x): each shard contributed up to
// m candidates regardless of how many suppliers stood behind them.
func TestShardedSamplingUniformAcrossShardSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-lookup measurement")
	}
	f := newShardFixture(t, 2)
	c := f.client(42)
	ctx := context.Background()

	// Craft supplier IDs routed to a chosen shard by the consistent-hash
	// ring itself (the same ring every client builds).
	ring, err := NewShardRing(2)
	if err != nil {
		t.Fatal(err)
	}
	perShard := [2]int{60, 4}
	var ids []string
	for shard, want := range perShard {
		for i := 0; len(ids) < 0+want+shardCount(perShard[:shard]); i++ {
			id := fmt.Sprintf("sup-%d-%d", shard, i)
			if ring.Owner(id) != shard {
				continue
			}
			ids = append(ids, id)
			if err := c.Register(ctx, reg(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perShard[0] + perShard[1]
	if got := f.shards[0].Len() + f.shards[1].Len(); got != total {
		t.Fatalf("registered %d suppliers, want %d", got, total)
	}
	if f.shards[1].Len() != perShard[1] {
		t.Fatalf("small shard holds %d, want %d", f.shards[1].Len(), perShard[1])
	}

	const (
		m     = 8
		draws = 1500
	)
	hits := make(map[string]int, total)
	for d := 0; d < draws; d++ {
		cands, err := c.Candidates(ctx, "", m, "")
		if err != nil {
			t.Fatalf("draw %d: %v", d, err)
		}
		if len(cands) != m {
			t.Fatalf("draw %d returned %d candidates, want %d", d, len(cands), m)
		}
		for _, cand := range cands {
			hits[cand.ID]++
		}
	}

	// Uniform expectation: every supplier at m/total per draw, within a
	// 5-sigma binomial envelope (the hypergeometric draw is slightly
	// tighter than binomial, so the envelope is conservative).
	p := float64(m) / float64(total)
	exp := draws * p
	sigma := math.Sqrt(draws * p * (1 - p))
	minRate, maxRate := math.Inf(1), 0.0
	var b strings.Builder
	for _, id := range ids {
		got := float64(hits[id])
		if dev := math.Abs(got - exp); dev > 5*sigma+1 {
			t.Errorf("%s: %v hits, want %.1f±%.1f", id, got, exp, 5*sigma+1)
		}
		rate := got / draws
		minRate = math.Min(minRate, rate)
		maxRate = math.Max(maxRate, rate)
		fmt.Fprintf(&b, "%s got=%4.0f\n", id, got)
	}
	t.Logf("per-supplier hit rates: min %.4f, max %.4f (%.2fx spread, uniform = %.4f)",
		minRate, maxRate, maxRate/minRate, p)
	// The unweighted merge put small-shard suppliers at ~7x the big
	// shard's rate; the weighted merge must stay well under 2x. The
	// reading is a function of the seeds — a lease refresh no longer moves
	// registry entries, so when the 10ms lease fires between draws does
	// not matter — and is 1.44x, the extremes of 64 binomial counts.
	if maxRate/minRate > 1.5 {
		t.Errorf("hit-rate spread %.2fx; weighted merge should sample (near) uniformly\n%s",
			maxRate/minRate, b.String())
	}
}

// shardCount sums already-placed shard populations (helper for the skew
// test's ID crafting loop).
func shardCount(placed []int) int {
	n := 0
	for _, v := range placed {
		n += v
	}
	return n
}

// TestShardPointKeys: a shard's virtual points sit where they always have,
// at the hash of "name/rep", whatever builds that key.
func TestShardPointKeys(t *testing.T) {
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d%s", i, strings.Repeat("x", i%5))
	}
	r, err := NewShardRingOf(1, names)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]int, len(names)*ShardPoints)
	for shard, name := range names {
		for rep := 0; rep < ShardPoints; rep++ {
			want[chord.HashKey(fmt.Sprintf("%s/%d", name, rep))] = shard
		}
	}
	if len(r.points) != len(want) {
		t.Fatalf("ring has %d points, want %d", len(r.points), len(want))
	}
	for _, p := range r.points {
		if shard, ok := want[p.pos]; !ok || shard != p.shard {
			t.Fatalf("point %#x of shard %d is not one of the \"name/rep\" points", p.pos, p.shard)
		}
	}
}
