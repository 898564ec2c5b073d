package reshard

import (
	"context"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// fixture is one elastic deployment on a virtual substrate: servers boot
// on demand (the Spawn path), retire on request, and a plain directory
// client drives load against whichever shard the test wants hot.
type fixture struct {
	t    *testing.T
	clk  *clock.Virtual
	vnet *netx.Virtual

	mu      sync.Mutex
	servers map[string]*directory.Server
	retired []string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.AutoRun())
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	return &fixture{t: t, clk: clk, vnet: vnet, servers: make(map[string]*directory.Server)}
}

func (f *fixture) spawn(seq int) (Member, error) {
	name := directory.ShardName(seq)
	srv := directory.NewServer(int64(100 + seq))
	l, err := f.vnet.Host(name).Listen(":0")
	if err != nil {
		return Member{}, err
	}
	go srv.Serve(l)
	f.t.Cleanup(func() { srv.Close() })
	f.mu.Lock()
	f.servers[name] = srv
	f.mu.Unlock()
	return Member{Name: name, Addr: l.Addr().String(), Server: srv}, nil
}

func (f *fixture) retire(m Member) {
	f.mu.Lock()
	f.retired = append(f.retired, m.Name)
	f.mu.Unlock()
	m.Server.Close()
}

func (f *fixture) retiredNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.retired...)
}

func (f *fixture) waitFor(what string, cond func() bool) {
	f.t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		f.clk.Sleep(2 * time.Millisecond)
	}
	f.t.Fatalf("timed out waiting for %s", what)
}

// TestControllerGrowsAndDrains drives the whole loop: sustained lookup
// load adds shards (epoch flips announced to every member), load falling
// away drains back down to the floor, and drained servers are retired
// only after the grace period.
func TestControllerGrowsAndDrains(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	first, err := f.spawn(0)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []observe.Event
	// The load loop below lands ~11 lookups per interval (one every
	// ~900µs of virtual time: 500µs sleep + the RPC's link latency), all
	// on shard-0. Mean load is ~11 at one shard and ~5.5 at two — above
	// the high-water mark either way, so the controller climbs to the
	// cap; with the load stopped the mean falls to 0 and it drains home
	// to the one pinned member.
	ctrl, err := New(Config{
		Clock:      f.clk,
		Interval:   10 * time.Millisecond,
		HighWater:  4,
		LowWater:   2,
		Sustain:    2,
		Pinned:     1,
		MaxShards:  3,
		DrainGrace: 30 * time.Millisecond,
		Members:    []Member{first},
		Spawn:      f.spawn,
		Retire:     f.retire,
		Observer: observe.Func(func(ev observe.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Close()

	if got := ctrl.Epoch(); got != 1 {
		t.Fatalf("initial epoch %d, want 1", got)
	}
	if got := first.Server.Epoch(); got.Epoch != 1 || len(got.Shards) != 1 {
		t.Fatalf("Start did not announce the initial epoch: %+v", got)
	}

	// Flash crowd: hammer lookups until the controller scales to the cap.
	cl := directory.NewClientOn(f.vnet.Host("load"), first.Addr)
	defer cl.Close()
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Lookup(ctx, "", 4, ""); err != nil {
				return
			}
			f.clk.Sleep(500 * time.Microsecond)
		}
	}()
	f.waitFor("scale-out to 3 shards", func() bool { return len(ctrl.Members()) == 3 })
	close(stop)
	loadWG.Wait()

	epochAfterGrowth := ctrl.Epoch()
	if epochAfterGrowth != 3 { // two growth flips past the initial epoch
		t.Errorf("epoch after growth = %d, want 3", epochAfterGrowth)
	}
	// Every member (spawned ones included) heard the newest epoch.
	for _, m := range ctrl.Members() {
		if got := m.Server.Epoch().Epoch; got != epochAfterGrowth {
			t.Errorf("member %s at epoch %d, want %d", m.Name, got, epochAfterGrowth)
		}
	}

	// Load gone: the controller drains back to the floor, coldest first,
	// and retires each victim after the grace period.
	f.waitFor("scale-in to 1 shard", func() bool { return len(ctrl.Members()) == 1 })
	f.waitFor("retirement of both drained shards", func() bool { return len(f.retiredNames()) == 2 })
	if got := ctrl.Flips(); got != 4 {
		t.Errorf("flips = %d, want 4 (two grows, two drains)", got)
	}

	mu.Lock()
	var adds, drains, flips int
	for _, ev := range events {
		switch ev.Type {
		case observe.ShardAdded:
			adds++
		case observe.ShardDrained:
			drains++
		case observe.EpochFlip:
			flips++
		}
	}
	mu.Unlock()
	if adds != 2 || drains != 2 || flips != 4 {
		t.Errorf("events: %d adds, %d drains, %d flips; want 2/2/4", adds, drains, flips)
	}
}

// TestControllerFloorAndValidation: the controller never drains below
// its pinned floor, never grows past MaxShards, and New rejects nonsense.
func TestControllerFloorAndValidation(t *testing.T) {
	f := newFixture(t)
	first, err := f.spawn(0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Clock:     f.clk,
		Interval:  5 * time.Millisecond,
		HighWater: 1e9, // never hot
		LowWater:  1,   // always cold
		Sustain:   1,
		Pinned:    1,
		MaxShards: 1,
		Members:   []Member{first},
		Spawn:     f.spawn,
		Retire:    f.retire,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	f.clk.Sleep(100 * time.Millisecond)
	if got := len(ctrl.Members()); got != 1 {
		t.Errorf("controller left the floor: %d members", got)
	}
	if got := ctrl.Flips(); got != 0 {
		t.Errorf("flips at the floor = %d, want 0", got)
	}
	ctrl.Close()
	ctrl.Close() // idempotent

	// Distinct names over one server: enough members to pin three.
	alias := func(name string) Member { return Member{Name: name, Addr: first.Addr, Server: first.Server} }
	bad := []Config{
		{Interval: 0, HighWater: 2, LowWater: 1, Members: []Member{first}},
		{Interval: time.Second, HighWater: 2, LowWater: 1},
		{Interval: time.Second, HighWater: 1, LowWater: 1, Members: []Member{first}},
		{Interval: time.Second, HighWater: 2, LowWater: 1, Members: []Member{first, first}},
		{Interval: time.Second, HighWater: 2, LowWater: 1, Pinned: 3, MaxShards: 2, Members: []Member{first, alias("a"), alias("b")}},
		{Interval: time.Second, HighWater: 2, LowWater: 1, Pinned: -1, Members: []Member{first}},
		{Interval: time.Second, HighWater: 2, LowWater: 1, Pinned: 2, Members: []Member{first}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestControllerPinnedBootstrap: a pinned member is never the drain
// victim, even when it is strictly the coldest shard. The pinned member
// here takes zero lookups while the unpinned one absorbs a burst, so
// pure coldest-first selection would drain the pinned shard — which is
// exactly what a deployment advertising it as the bootstrap address
// cannot afford.
func TestControllerPinnedBootstrap(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	pinned, err := f.spawn(0)
	if err != nil {
		t.Fatal(err)
	}
	spawned, err := f.spawn(1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Clock:      f.clk,
		Interval:   20 * time.Millisecond,
		HighWater:  1e9, // never hot
		LowWater:   1e6, // always cold: every tick counts toward the drain
		Sustain:    3,
		Pinned:     1,
		MaxShards:  2,
		DrainGrace: 20 * time.Millisecond,
		Members:    []Member{pinned, spawned},
		Retire:     f.retire,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Close()

	// Make the unpinned shard strictly hotter than the pinned one before
	// the sustain window elapses: the drain tick must see the pinned
	// member as the coldest and still pass it over.
	cl := directory.NewClientOn(f.vnet.Host("load"), spawned.Addr)
	for i := 0; i < 10; i++ {
		if _, err := cl.Lookup(ctx, "", 4, ""); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()

	f.waitFor("drain to 1 shard", func() bool { return len(ctrl.Members()) == 1 })
	if got := ctrl.Members()[0].Name; got != pinned.Name {
		t.Fatalf("surviving member is %s, want pinned %s", got, pinned.Name)
	}
	f.waitFor("retirement of the spawned shard", func() bool { return len(f.retiredNames()) == 1 })
	if got := f.retiredNames(); got[0] != spawned.Name {
		t.Fatalf("retired %v, want [%s]", got, spawned.Name)
	}
	// With only the pinned member left there is no drain candidate: the
	// controller idles at the floor instead of flipping again.
	f.clk.Sleep(200 * time.Millisecond)
	if got := ctrl.Flips(); got != 1 {
		t.Errorf("flips = %d, want 1", got)
	}
}

// TestControllerCloseRetiresPending: a Close inside the drain grace
// period retires the victim immediately — the deployment is going away,
// nothing may leak.
func TestControllerCloseRetiresPending(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	first, err := f.spawn(0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.spawn(1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Clock:      f.clk,
		Interval:   10 * time.Millisecond,
		HighWater:  1e9,
		LowWater:   1,
		Sustain:    1,
		Pinned:     1,
		MaxShards:  2,
		DrainGrace: time.Hour, // never expires on its own
		Members:    []Member{first, second},
		Retire:     f.retire,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	f.waitFor("one drain", func() bool { return len(ctrl.Members()) == 1 })
	if got := f.retiredNames(); len(got) != 0 {
		t.Fatalf("victim retired before its grace period: %v", got)
	}
	// The drained server still answers inside the grace period — a
	// client fanning over the old shard set depends on that.
	drained := second
	if got := ctrl.Members()[0].Name; got != first.Name {
		t.Fatalf("surviving member is %s, want pinned %s", got, first.Name)
	}
	dc := directory.NewClientOn(f.vnet.Host("late"), drained.Addr)
	if err := dc.Register(ctx, transport.Register{ID: "x", Addr: "x:1", Class: 1}); err != nil {
		t.Errorf("drained shard unreachable inside its grace period: %v", err)
	}
	dc.Close()
	ctrl.Close()
	if got := f.retiredNames(); len(got) != 1 || got[0] != drained.Name {
		t.Errorf("Close retired %v, want [%s]", got, drained.Name)
	}
}
