package reshard

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/transport"
)

// BootFunc starts the server of shard i and returns it with the address
// it listens on. addr is "" on the shard's first boot and the shard's
// fixed address on a Restart, where every client's ring still routes.
type BootFunc func(i int, addr string) (*directory.Server, string, error)

// Deployment is one directory registry as it runs: the bootstrap shards
// and the shards spawned since, in one table by shard index. Every shard
// is named directory.ShardName(i), booted through one BootFunc and closed
// exactly once. An elastic deployment also keeps the current epoch's live
// shard set and runs the autoscale loop over it.
type Deployment struct {
	boot   BootFunc
	cfg    Config // the zero Config for a fixed deployment
	clk    clock.Clock
	pinned int // the bootstrap shards, indices below pinned, never drain

	mu       sync.Mutex
	closed   bool    // Close has begun: a late boot must not leak its server
	shards   []shard // by shard index
	live     []int   // the current epoch's shard indices, in shard order
	epoch    int64   // 0 for a fixed deployment
	hot      int     // consecutive intervals above HighWater
	cold     int     // consecutive intervals below LowWater
	flipping bool    // a grow or drain is under way
	timer    clock.Timer
	wg       sync.WaitGroup // grows, drains and retires in flight
}

// shard is one entry of a Deployment's shard table.
type shard struct {
	Member             // Server is nil while down and once closed
	last   int64       // cumulative lookups at the previous tick
	retire clock.Timer // a drained shard's grace timer, until it fires
}

// Deploy boots the bootstrap shards and, given an autoscale config,
// announces epoch 1 over them and arms the autoscale loop. The bootstrap
// shards are the addresses booting peers dial, so all of them are pinned:
// only spawned shards drain, and the count never falls below the
// bootstrap count. An autoscale config is checked before any shard boots.
// A failed boot closes what was started.
func Deploy(bootstrap int, boot BootFunc, autoscale *Config) (*Deployment, error) {
	d := &Deployment{boot: boot, pinned: bootstrap}
	if autoscale != nil {
		cfg, err := autoscale.check(bootstrap)
		if err != nil {
			return nil, err
		}
		d.cfg, d.clk = cfg, clock.Or(cfg.Clock)
	}
	for i := range bootstrap {
		if _, err := d.start(i, ""); err != nil {
			d.Close()
			return nil, err
		}
		d.live = append(d.live, i)
	}
	if autoscale != nil {
		// Nothing else holds d until the loop is armed.
		d.epoch = 1
		announce(d.epochLocked())
		d.mu.Lock()
		d.timer = d.clk.AfterFunc(d.cfg.Interval, d.tick)
		d.mu.Unlock()
	}
	return d, nil
}

// Epoch returns the current epoch number: 0 for a fixed deployment.
func (d *Deployment) Epoch() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Snapshot returns the current epoch and its shard set, in shard order, in
// one consistent read — what a client booting mid-run must route by.
func (d *Deployment) Snapshot() (int64, []Member) {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := make([]Member, len(d.live))
	for j, i := range d.live {
		live[j] = d.shards[i].Member
	}
	return d.epoch, live
}

// Shards returns every shard the deployment has booted, by index: the
// bootstrap set, then each spawned shard (a spawn still booting, or that
// failed to boot, leaves its index empty). Server is nil while a shard is
// down and after its server closed.
func (d *Deployment) Shards() []Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms := make([]Member, len(d.shards))
	for i, s := range d.shards {
		ms[i] = s.Member
	}
	return ms
}

// Addrs returns every shard's address, by index.
func (d *Deployment) Addrs() []string {
	shards := d.Shards()
	addrs := make([]string, len(shards))
	for i, m := range shards {
		addrs[i] = m.Addr
	}
	return addrs
}

// Len returns the registrations the live shards hold, summed: a down
// shard's are invisible, as they are to its clients.
func (d *Deployment) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, s := range d.shards {
		if s.Server != nil {
			n += s.Server.Len()
		}
	}
	return n
}

// start boots shard i on addr ("" on its first boot) and files it under
// its index. A shard restarted while its epoch is current hears the epoch
// at once, and its load is sampled from its fresh server on.
func (d *Deployment) start(i int, addr string) (Member, error) {
	srv, bound, err := d.boot(i, addr)
	if err != nil {
		return Member{}, fmt.Errorf("shard %d: %w", i, err)
	}
	m := Member{Name: directory.ShardName(i), Addr: bound, Server: srv}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.retire(m)
		return Member{}, errors.New("reshard: deployment is closed")
	}
	for len(d.shards) <= i {
		d.shards = append(d.shards, shard{})
	}
	d.shards[i].Member, d.shards[i].last = m, load(srv)
	var ep transport.DirEpoch
	rejoin := d.epoch > 0 && slices.Contains(d.live, i)
	if rejoin {
		ep, _ = d.epochLocked()
	}
	d.mu.Unlock()
	if rejoin {
		srv.SetEpoch(ep)
	}
	return m, nil
}

// Crash takes shard i's server out of the deployment and closes it in the
// background, as a killed process loses its in-memory registry. Close
// will not close it again, and the autoscale loop skips the shard until
// Restart brings it back.
func (d *Deployment) Crash(i int) {
	d.mu.Lock()
	srv := d.shards[i].Server
	d.shards[i].Server = nil
	d.mu.Unlock()
	if srv != nil {
		go srv.Close()
	}
}

// Restart boots a fresh, empty server for shard i, down since Crash, on
// the shard's fixed address.
func (d *Deployment) Restart(i int) error {
	d.mu.Lock()
	addr := d.shards[i].Addr
	d.mu.Unlock()
	_, err := d.start(i, addr)
	return err
}

// retire closes m's server, which its caller took out of the table, and
// tells Config.Retire.
func (d *Deployment) retire(m Member) {
	m.Server.Close()
	if d.cfg.Retire != nil {
		d.cfg.Retire(m)
	}
}

// Close stops the autoscale loop, retires every shard server still open —
// the drained ones inside their grace period too — and waits for the
// flips and retires in flight; a spawn that loses the race retires its own
// server. Idempotent.
func (d *Deployment) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	timers := []clock.Timer{d.timer}
	var open []Member
	for i := range d.shards {
		s := &d.shards[i]
		timers = append(timers, s.retire)
		if s.Server != nil {
			open = append(open, s.Member)
			s.Server = nil
		}
	}
	d.mu.Unlock()
	for _, t := range timers {
		if t != nil {
			t.Stop()
		}
	}
	for _, m := range open {
		d.retire(m)
	}
	d.wg.Wait()
}
