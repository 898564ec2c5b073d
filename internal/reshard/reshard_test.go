package reshard

import (
	"context"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
)

// fixture is the virtual substrate of an elastic deployment: shard i
// boots on virtual host ShardName(i), and plain directory clients drive
// load against whichever shard a test wants hot.
type fixture struct {
	t    *testing.T
	clk  *clock.Virtual
	vnet *netx.Virtual
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := clock.NewVirtual()
	t.Cleanup(clk.AutoRun())
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	return &fixture{t: t, clk: clk, vnet: vnet}
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
// load adds shards (epoch flips announced to every live shard), load
// falling away drains back down to the floor, and drained servers are
// retired only after the grace period.
func TestControllerGrowsAndDrains(t *testing.T) {
	f := newFixture(t)
	// The load loop below lands ~11 lookups per interval (one every
	// ~900µs of virtual time: 500µs sleep + the RPC's link latency), all
	// on shard-0. Mean load is ~11 at one shard and ~5.5 at two — above
	// the high-water mark either way, so the deployment climbs to the
	// cap; with the load stopped the mean falls to 0 and it drains home
	// to the one bootstrap shard.
	d := f.deploy(1, nil, Config{
		Interval:   10 * time.Millisecond,
		HighWater:  4,
		LowWater:   2,
		Sustain:    2,
		MaxShards:  3,
		DrainGrace: 30 * time.Millisecond,
	})
	if got := d.Epoch(); got != 1 {
		t.Fatalf("initial epoch %d, want 1", got)
	}
	if got := d.Shards()[0].Server.Epoch(); got.Epoch != 1 || len(got.Shards) != 1 {
		t.Fatalf("Deploy did not announce the initial epoch: %+v", got)
	}

	// Flash crowd: hammer lookups until the deployment scales to the cap.
	stop := d.load(0, 500*time.Microsecond)
	f.waitFor("scale-out to 3 shards", func() bool { return len(d.members()) == 3 })
	stop()

	epochAfterGrowth := d.Epoch()
	if epochAfterGrowth != 3 { // two growth flips past the initial epoch
		t.Errorf("epoch after growth = %d, want 3", epochAfterGrowth)
	}
	// Every live shard (spawned ones included) heard the newest epoch.
	_, live := d.Snapshot()
	for _, m := range live {
		if got := m.Server.Epoch().Epoch; got != epochAfterGrowth {
			t.Errorf("shard %s at epoch %d, want %d", m.Name, got, epochAfterGrowth)
		}
	}

	// Load gone: the deployment drains back to the floor, coldest first,
	// and retires each victim after the grace period.
	f.waitFor("scale-in to 1 shard", func() bool { return len(d.members()) == 1 })
	f.waitFor("retirement of both drained shards", func() bool { return len(d.retiredNames()) == 2 })
	if adds, drains, flips := len(d.named(observe.ShardAdded)), len(d.named(observe.ShardDrained)), len(d.named(observe.EpochFlip)); adds != 2 || drains != 2 || flips != 4 {
		t.Errorf("events: %d adds, %d drains, %d flips; want 2/2/4", adds, drains, flips)
	}
}

// TestControllerFloorAndValidation: a deployment never drains below its
// bootstrap floor and never grows past MaxShards, even when every sample
// is cold. (The configs Deploy rejects are TestDeployRejectsBeforeBoot's.)
func TestControllerFloorAndValidation(t *testing.T) {
	f := newFixture(t)
	d := f.deploy(1, nil, Config{
		Interval:  5 * time.Millisecond,
		HighWater: 1e9, // never hot
		LowWater:  1,   // always cold
		Sustain:   1,
		MaxShards: 1,
	})
	f.clk.Sleep(100 * time.Millisecond)
	if got := len(d.members()); got != 1 {
		t.Errorf("deployment left the floor: %d shards", got)
	}
	if got := len(d.named(observe.EpochFlip)); got != 0 {
		t.Errorf("flips at the floor = %d, want 0", got)
	}
	d.Close()
	d.Close() // idempotent
}

// TestControllerPinnedBootstrap: a bootstrap shard is never the drain
// victim, even when it is strictly the coldest shard. Once the deployment
// has grown, the bootstrap shard takes no lookups while the spawned one
// takes a steady trickle, so pure coldest-first selection would drain the
// bootstrap shard — which is exactly what a deployment advertising it as
// the bootstrap address cannot afford.
func TestControllerPinnedBootstrap(t *testing.T) {
	f := newFixture(t)
	// ~11 lookups per interval on shard-0 grow the deployment to its cap
	// of two. A lookup every ~3.2ms on shard-1 then holds the mean at
	// ~1.5, below LowWater, with shard-1 strictly the hotter shard on
	// every tick of the sustain window.
	d := f.deploy(1, nil, Config{
		Interval:   10 * time.Millisecond,
		HighWater:  5,
		LowWater:   4,
		Sustain:    3,
		MaxShards:  2,
		DrainGrace: 20 * time.Millisecond,
	})
	stop := d.load(0, 500*time.Microsecond)
	f.waitFor("scale-out to 2 shards", func() bool { return len(d.members()) == 2 })
	stop()
	stop = d.load(1, 3*time.Millisecond)
	defer stop()

	bootstrap, spawned := directory.ShardName(0), directory.ShardName(1)
	f.waitFor("drain to 1 shard", func() bool { return len(d.members()) == 1 })
	if got := d.members()[0]; got != bootstrap {
		t.Fatalf("surviving shard is %s, want the bootstrap %s", got, bootstrap)
	}
	f.waitFor("retirement of the spawned shard", func() bool { return len(d.retiredNames()) == 1 })
	if got := d.retiredNames(); got[0] != spawned {
		t.Fatalf("retired %v, want [%s]", got, spawned)
	}
	// With only the bootstrap shard left there is no drain candidate: the
	// deployment idles at the floor instead of flipping again.
	f.clk.Sleep(200 * time.Millisecond)
	if got := len(d.named(observe.EpochFlip)); got != 2 {
		t.Errorf("flips = %d, want 2 (one grow, one drain)", got)
	}
}

// TestDeployRejectsBeforeBoot: an autoscale config Deploy rejects boots no
// shard — in p2pdir, binds no port.
func TestDeployRejectsBeforeBoot(t *testing.T) {
	boots := 0
	boot := func(int, string) (*directory.Server, string, error) {
		boots++
		return nil, "", context.Canceled
	}
	for _, tc := range []struct {
		name      string
		bootstrap int
		cfg       Config
	}{
		{"no interval", 1, Config{HighWater: 2, LowWater: 1}},
		{"negative interval", 1, Config{Interval: -time.Second, HighWater: 2, LowWater: 1}},
		{"high below low", 2, Config{Interval: time.Millisecond, HighWater: 1, LowWater: 2}},
		{"high at low", 1, Config{Interval: time.Second, HighWater: 1, LowWater: 1}},
		{"negative low", 1, Config{Interval: time.Second, HighWater: 1, LowWater: -1}},
		{"cap below bootstrap", 3, Config{Interval: time.Second, HighWater: 2, LowWater: 1, MaxShards: 2}},
		{"no bootstrap", 0, Config{Interval: time.Second, HighWater: 2, LowWater: 1}},
	} {
		boots = 0
		if _, err := Deploy(tc.bootstrap, boot, &tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if boots != 0 {
			t.Errorf("%s: booted %d shards before rejecting the config", tc.name, boots)
		}
	}
}
