package reshard

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"p2pstream/internal/directory"
)

// BootFunc starts the server of shard i and returns it with the address
// it listens on. addr is "" on the shard's first boot and the shard's
// fixed address on a Restart, where every client's ring still routes.
type BootFunc func(i int, addr string) (*directory.Server, string, error)

// Deployment is one directory registry as it runs: the bootstrap shards,
// the shards spawned since and, when it autoscales, the Controller over
// them. Every shard is named directory.ShardName(i), booted through one
// BootFunc and closed exactly once.
type Deployment struct {
	boot    BootFunc
	ctrl    *Controller
	retired func(Member)

	mu     sync.Mutex
	closed bool     // Close has begun: a late boot must not leak its server
	shards []Member // by shard index; Server is nil while down and once closed
}

// Deploy boots the bootstrap shards and, given an autoscale config,
// starts a Controller over them. The bootstrap shards are the addresses
// booting peers dial, so all of them are pinned: only spawned shards
// drain, and the count never falls below the bootstrap count. Deploy
// fills autoscale's Members, Pinned, Spawn and Retire; a Retire the caller
// set is told of every shard the deployment retires: a drained one after
// its grace period, every live one at Close. A failed boot closes what
// was started.
func Deploy(bootstrap int, boot BootFunc, autoscale *Config) (*Deployment, error) {
	d := &Deployment{boot: boot}
	for i := range bootstrap {
		if _, err := d.start(i, ""); err != nil {
			d.Close()
			return nil, err
		}
	}
	if autoscale == nil {
		return d, nil
	}
	cfg := *autoscale
	cfg.Members, cfg.Pinned = d.Shards(), bootstrap
	cfg.Spawn = func(seq int) (Member, error) { return d.start(seq, "") }
	cfg.Retire = d.retire
	ctrl, err := New(cfg)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.ctrl, d.retired = ctrl, autoscale.Retire
	ctrl.Start()
	return d, nil
}

// Controller returns the autoscaling controller, nil for a fixed
// deployment.
func (d *Deployment) Controller() *Controller { return d.ctrl }

// Shards returns every shard the deployment has booted, by index: the
// bootstrap set, then each spawned shard (a spawn that failed to boot
// leaves its index empty). Server is nil while a shard is down and after
// its server closed.
func (d *Deployment) Shards() []Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.shards)
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
	for _, m := range d.shards {
		if m.Server != nil {
			n += m.Server.Len()
		}
	}
	return n
}

// start boots shard i on addr ("" on its first boot) and files it under
// its index.
func (d *Deployment) start(i int, addr string) (Member, error) {
	srv, bound, err := d.boot(i, addr)
	if err != nil {
		return Member{}, fmt.Errorf("shard %d: %w", i, err)
	}
	m := Member{Name: directory.ShardName(i), Addr: bound, Server: srv}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		srv.Close()
		return Member{}, errors.New("reshard: deployment is closed")
	}
	for len(d.shards) <= i {
		d.shards = append(d.shards, Member{})
	}
	d.shards[i] = m
	d.mu.Unlock()
	return m, nil
}

// Crash takes shard i's server out of the deployment and closes it in the
// background, as a killed process loses its in-memory registry. Close
// will not close it again; Restart brings the shard back.
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

// retire closes m's server unless another caller already took it: the
// controller's Retire hook (a drained shard, DrainGrace after its flip)
// and Close share it, so every server closes exactly once.
func (d *Deployment) retire(m Member) {
	d.mu.Lock()
	i := slices.IndexFunc(d.shards, func(s Member) bool { return s.Server == m.Server })
	if i >= 0 {
		d.shards[i].Server = nil
	}
	d.mu.Unlock()
	if i < 0 {
		return
	}
	m.Server.Close()
	if d.retired != nil {
		d.retired(m)
	}
}

// Close stops the controller first, which retires the drained shards
// still inside their grace period, then closes every live shard server.
// Idempotent.
func (d *Deployment) Close() {
	if d.ctrl != nil {
		d.ctrl.Close()
	}
	d.mu.Lock()
	d.closed = true
	shards := slices.Clone(d.shards)
	d.mu.Unlock()
	for _, m := range shards {
		if m.Server != nil {
			d.retire(m)
		}
	}
}
