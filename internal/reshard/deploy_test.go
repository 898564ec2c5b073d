package reshard

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/directory"
	"p2pstream/internal/observe"
)

// deployment is one Deploy on the fixture's substrate, shard i on virtual
// host ShardName(i), with every Retire notification and observer event
// recorded.
type deployment struct {
	*Deployment
	f *fixture

	mu      sync.Mutex
	retired []string
	events  []observe.Event
}

func (f *fixture) deploy(bootstrap int, boot BootFunc, cfg Config) *deployment {
	f.t.Helper()
	d := &deployment{f: f}
	if boot == nil {
		boot = f.boot
	}
	cfg.Clock = f.clk
	cfg.Retire = func(m Member) {
		d.mu.Lock()
		d.retired = append(d.retired, m.Name)
		d.mu.Unlock()
	}
	cfg.Observer = observe.Func(func(ev observe.Event) {
		d.mu.Lock()
		d.events = append(d.events, ev)
		d.mu.Unlock()
	})
	dep, err := Deploy(bootstrap, boot, &cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(dep.Close)
	d.Deployment = dep
	return d
}

func (f *fixture) boot(i int, addr string) (*directory.Server, string, error) {
	srv := directory.NewServer(int64(100 + i))
	bound, err := srv.Start(f.vnet.Host(directory.ShardName(i)), addr)
	return srv, bound, err
}

// load drives lookups at the first shard until the returned stop runs.
func (d *deployment) load() (stop func()) {
	cl := directory.NewClientOn(d.f.vnet.Host("load"), d.Shards()[0].Addr)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := cl.Lookup(context.Background(), "", 4, ""); err != nil {
				return
			}
			d.f.clk.Sleep(500 * time.Microsecond)
		}
	}()
	return func() { close(done); wg.Wait(); cl.Close() }
}

// members is the controller's live shard set by name.
func (d *deployment) members() []string {
	var names []string
	for _, m := range d.Controller().Members() {
		names = append(names, m.Name)
	}
	return names
}

func (d *deployment) named(typ observe.Type) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for _, ev := range d.events {
		if ev.Type == typ {
			names = append(names, ev.Object)
		}
	}
	return names
}

func (d *deployment) retiredNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.retired)
}

// TestDeployPinsBootstrap grows a two-shard deployment to four under
// load, lets it drain, then grows it once more: the bootstrap shards are
// never drain victims, the count never drops below two, and spawned shards
// are named on in DefaultShardNames order without reusing a drained name.
func TestDeployPinsBootstrap(t *testing.T) {
	f := newFixture(t)
	// The load loop lands ~11 lookups per interval on shard-0: a mean
	// above HighWater at up to four shards; stopped, the mean falls to 0.
	d := f.deploy(2, nil, Config{
		Interval:   10 * time.Millisecond,
		HighWater:  2,
		LowWater:   1,
		Sustain:    1,
		MaxShards:  4,
		DrainGrace: 20 * time.Millisecond,
	})
	stop := d.load()
	f.waitFor("scale-out to 4 shards", func() bool { return len(d.members()) == 4 })
	stop()
	f.waitFor("scale-in to the bootstrap set", func() bool { return len(d.members()) == 2 })
	stop = d.load()
	f.waitFor("a second scale-out", func() bool { return len(d.members()) == 3 })
	stop()
	f.waitFor("the second scale-in", func() bool { return len(d.members()) == 2 })
	f.waitFor("every drained shard retired", func() bool { return len(d.retiredNames()) == 3 })

	names := directory.DefaultShardNames(5)
	if got := d.members(); !slices.Equal(got, names[:2]) {
		t.Errorf("final members %v, want the bootstrap set %v", got, names[:2])
	}
	if got := d.named(observe.ShardAdded); !slices.Equal(got, names[2:]) {
		t.Errorf("spawned %v, want %v", got, names[2:])
	}
	drained := d.named(observe.ShardDrained)
	slices.Sort(drained)
	if !slices.Equal(drained, names[2:]) {
		t.Errorf("drained %v, want exactly the spawned %v", drained, names[2:])
	}
	d.mu.Lock()
	for _, ev := range d.events {
		if ev.Type == observe.EpochFlip && ev.Count < 2 {
			t.Errorf("epoch %d has %d shards, below the 2 bootstrap shards", ev.Epoch, ev.Count)
		}
	}
	d.mu.Unlock()
	shards := d.Shards()
	if len(shards) != 5 {
		t.Fatalf("deployment holds %d shards, want 5", len(shards))
	}
	for i, s := range shards {
		if s.Name != names[i] || (s.Server != nil) != (i < 2) {
			t.Errorf("shard %d = %s (live %v), want %s live only if bootstrap", i, s.Name, s.Server != nil, names[i])
		}
	}
}

// TestDeployCloseRetiresOnce closes a deployment with a drained shard
// still inside its grace period: every server it ever booted closes
// exactly once, and none still listens.
func TestDeployCloseRetiresOnce(t *testing.T) {
	f := newFixture(t)
	d := f.deploy(2, nil, Config{
		Interval:   10 * time.Millisecond,
		HighWater:  2,
		LowWater:   1,
		Sustain:    1,
		MaxShards:  4,
		DrainGrace: time.Hour, // retired only by Close
	})
	stop := d.load()
	f.waitFor("scale-out to 4 shards", func() bool { return len(d.members()) == 4 })
	stop()
	f.waitFor("one drain", func() bool { return len(d.members()) == 3 })
	if got := d.retiredNames(); len(got) != 0 {
		t.Fatalf("retired %v inside the grace period", got)
	}
	d.Close()
	d.Close() // idempotent
	got := d.retiredNames()
	slices.Sort(got)
	if want := directory.DefaultShardNames(4); !slices.Equal(got, want) {
		t.Errorf("Close retired %v, want each of %v once", got, want)
	}
	for _, s := range d.Shards() {
		if s.Server != nil {
			t.Errorf("%s still holds a server after Close", s.Name)
		}
		if c, err := f.vnet.Host("probe").Dial(s.Addr); err == nil {
			c.Close()
			t.Errorf("%s still listens on %s after Close", s.Name, s.Addr)
		}
	}
}

// TestDeploySpawnRacingClose holds a spawn inside its boot while Close
// runs: the late server is retired, not leaked.
func TestDeploySpawnRacingClose(t *testing.T) {
	f := newFixture(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var spawnedAddr string
	boot := func(i int, addr string) (*directory.Server, string, error) {
		srv, bound, err := f.boot(i, addr)
		if i >= 2 {
			spawnedAddr = bound
			close(entered)
			<-release
		}
		return srv, bound, err
	}
	d := f.deploy(2, boot, Config{
		Interval:  10 * time.Millisecond,
		HighWater: 2,
		LowWater:  1,
		Sustain:   1,
		MaxShards: 3,
	})
	stop := d.load()
	<-entered
	stop()
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	// Release the spawn only once Close has shut the controller, so the
	// spawned server lands in a deployment that is going away.
	for ctrl := d.Controller(); ; time.Sleep(time.Millisecond) {
		ctrl.mu.Lock()
		shut := ctrl.closed
		ctrl.mu.Unlock()
		if shut {
			break
		}
	}
	close(release)
	<-closed
	if got := d.retiredNames(); !slices.Contains(got, directory.ShardName(2)) {
		t.Errorf("retired %v, want the racing spawn %s among them", got, directory.ShardName(2))
	}
	if c, err := f.vnet.Host("probe").Dial(spawnedAddr); err == nil {
		c.Close()
		t.Errorf("the spawn that raced Close still listens on %s", spawnedAddr)
	}
}
