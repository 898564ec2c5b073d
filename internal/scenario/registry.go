package scenario

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/reshard"
)

// DirectoryHost is the virtual host name the directory server listens on.
// Link rules may reference it; peer IDs must not claim it.
const DirectoryHost = "dir"

// ShardHost returns the virtual host name of directory registry shard i:
// shard 0 is DirectoryHost itself (a single-shard run is byte-for-byte the
// unsharded run), further shards are "dir1", "dir2", ... Link rules and —
// with DirectoryShards >= 2 — churn events may reference shard hosts;
// peer IDs must not claim them.
func ShardHost(i int) string {
	if i == 0 {
		return DirectoryHost
	}
	return fmt.Sprintf("dir%d", i)
}

// shardHostIndex returns which of a count-shard registry's hosts the name
// denotes, or -1 — including for count < 2, where no sharded registry
// runs (ShardHost(0) is then just the directory host, whose churn rules
// differ).
func shardHostIndex(node string, count int) int {
	if count < 2 {
		return -1
	}
	for i := 0; i < count; i++ {
		if ShardHost(i) == node {
			return i
		}
	}
	return -1
}

// Retarget re-aims a spec at another discovery backend and/or registry
// shard count — p2pscen's -backend and -shards overrides. It drops what
// the new target cannot run: churn aimed at a registry host it does not
// have and, under chord, the autoscaler together with the Expect clauses
// only its epoch flips can satisfy. An empty backend keeps the spec's own,
// as does a negative shard count.
func Retarget(spec Spec, backend string, shards int) (Spec, error) {
	keep := shards // shard hosts below keep still run; negative keeps them all
	if backend != "" {
		b, err := ParseBackend(backend)
		if err != nil {
			return Spec{}, err
		}
		spec.Discovery = b
		if b == BackendChord {
			// A chord run has no registry: no shards to crash or rebirth,
			// and no resharding controller either, so an elastic spec loses
			// its autoscaler and the expectations only epoch flips satisfy.
			keep, shards = 0, max(shards, 0)
			spec.Autoscale = nil
			spec.Expect.MinEpochFlips = 0
			spec.Expect.MaxFlipConvergence = 0
			spec.Expect.NoLostRegistrations = false
			spec.Expect.NoFailedShardLegs = false
		} else {
			spec.KeepDirectory = false
		}
	}
	spec.Churn = slices.DeleteFunc(slices.Clone(spec.Churn), func(ev ChurnEvent) bool {
		if idx := shardHostIndex(ev.Node, spec.DirectoryShards); idx >= 0 {
			return keep >= 0 && (keep < 2 || idx >= keep)
		}
		// A directory-backed run cannot also crash the directory: scrub
		// the decoy kill a chord spec may carry.
		return ev.Node == DirectoryHost && backend != "" && spec.Discovery != BackendChord
	})
	if shards >= 0 {
		spec.DirectoryShards = shards
	}
	return spec, nil
}

// shardSlot is one registry shard's place in the run: its ring member
// (server, address, name) and whether it is up. The address and ring name
// stay the slot's for the whole run; the server is nil before the first
// boot and after retirement, and up is false while the shard is crashed.
type shardSlot struct {
	reshard.Member
	up bool
}

// registry is the run's directory side: one slot per registry shard (one
// for the centralized directory, none under pure chord discovery) and,
// when the registry is elastic, the controller that grows and drains it.
type registry struct {
	net  *netx.Virtual
	seed int64
	// objects are the catalog objects counted per object at the end: set
	// in multi-object directory-backed runs (the chord census does not
	// split by object).
	objects []*media.File
	ctrl    *reshard.Controller

	mu    sync.Mutex
	done  bool // the run is over; late shard rebirths must not leak servers
	slots []shardSlot
}

// bootRegistry is the registry step. Chord discovery needs no directory
// at all; a scenario may still ask for one (KeepDirectory) purely to
// crash it and prove the point. The directory backend boots shardCount
// registry shards (1 = the plain centralized server) and, when the spec
// autoscales, the controller over them. The registry closes at teardown,
// a partial boot included.
func (h *harness) bootRegistry() error {
	if h.chordBacked() && !h.spec.KeepDirectory {
		return nil
	}
	r := &h.reg
	r.net, r.seed = h.net, h.spec.Seed
	if !h.chordBacked() && len(h.spec.Objects) > 0 {
		r.objects = h.spec.Objects
	}
	names := directory.DefaultShardNames(h.spec.shardCount())
	r.slots = make([]shardSlot, len(names))
	h.onClose(r.close)
	for i, name := range names {
		r.slots[i].Name = name
		if err := r.boot(i, 0); err != nil {
			return err
		}
	}
	if a := h.spec.Autoscale; a != nil {
		members := make([]reshard.Member, len(r.slots))
		for i, s := range r.slots {
			members[i] = s.Member
		}
		ctrl, err := reshard.New(reshard.Config{
			Clock:      h.clk,
			Interval:   a.Interval,
			HighWater:  a.HighWater,
			LowWater:   a.LowWater,
			Sustain:    a.Sustain,
			MinShards:  a.MinShards,
			MaxShards:  a.MaxShards,
			DrainGrace: a.DrainGrace,
			Members:    members,
			Spawn:      r.spawn,
			Retire:     r.retire,
			Observer:   &h.tally,
		})
		if err != nil {
			return err
		}
		r.ctrl = ctrl
		ctrl.Start()
	}
	return nil
}

// boot starts registry shard i. The first boot listens on a fresh port; a
// rebirth (generation > 0) re-listens on the shard's fixed address, where
// every client's ring still routes. The generation also bumps the shard's
// candidate-sampling seed: a fresh server must not replay the dead one's
// sampling stream.
func (r *registry) boot(i, generation int) error {
	srv := directory.NewServer(r.seed + int64(i)*1009 + int64(generation)*500009)
	r.mu.Lock()
	addr := r.slots[i].Addr // still empty on the first boot: any port
	r.mu.Unlock()
	bound, err := srv.Start(r.net.Host(ShardHost(i)), addr)
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	r.mu.Lock()
	if r.done {
		// A rebirth or a scale-out flip near the end of the run lost the
		// race against teardown and must not leak the server.
		r.mu.Unlock()
		srv.Close()
		return errors.New("scenario: run is over")
	}
	s := &r.slots[i]
	s.Server, s.Addr, s.up = srv, bound, true
	r.mu.Unlock()
	return nil
}

// crash hard-kills registry shard i: the host drops off the network
// (listeners close, connections reset) and the registry state dies with
// the server. Runs from a clock callback; the blocking close is deferred
// to a fresh goroutine.
func (r *registry) crash(i int) {
	r.mu.Lock()
	srv := r.slots[i].Server
	r.slots[i].up = false
	r.mu.Unlock()
	r.net.SetDown(ShardHost(i))
	if srv != nil {
		go srv.Close()
	}
}

// revive brings a crashed shard back: the host revives and a fresh
// server — empty, like any process restarted after losing its in-memory
// state — listens on the shard's fixed address. The clients' lease
// re-registrations repopulate it within one refresh interval.
func (r *registry) revive(i int) {
	r.net.SetUp(ShardHost(i))
	// The address is fixed and the host just revived; failure here means
	// the run is over or the harness itself is broken, and the scenario's
	// invariant checks will surface the dead shard.
	_ = r.boot(i, 1)
}

// spawn is the elastic registry's scale-out hook: it boots a fresh shard
// server on ShardHost(seq) under a ring name that never reuses a drained
// shard's identity. Runs on the controller's flip goroutine mid-run; slot
// index equals seq because spawns only ever append.
func (r *registry) spawn(seq int) (reshard.Member, error) {
	r.mu.Lock()
	for len(r.slots) <= seq {
		r.slots = append(r.slots, shardSlot{})
	}
	r.slots[seq].Name = fmt.Sprintf("shard-%d", seq)
	r.mu.Unlock()
	if err := r.boot(seq, 0); err != nil {
		return reshard.Member{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slots[seq].Member, nil
}

// retire is the scale-in hook: the controller calls it DrainGrace after
// the victim's flip (by then every client's overlap window has closed),
// and the registry marks the slot down and closes the server.
func (r *registry) retire(m reshard.Member) {
	r.mu.Lock()
	for i := range r.slots {
		if r.slots[i].Server == m.Server {
			r.slots[i].Server, r.slots[i].up = nil, false
		}
	}
	r.mu.Unlock()
	m.Server.Close()
}

// close stops the controller, then shuts every live registry shard down.
func (r *registry) close() {
	if r.ctrl != nil {
		r.ctrl.Close()
	}
	r.mu.Lock()
	r.done = true
	slots := slices.Clone(r.slots)
	r.mu.Unlock()
	for _, s := range slots {
		if s.Server != nil {
			s.Server.Close()
		}
	}
}

func (r *registry) addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.slots))
	for i, s := range r.slots {
		out[i] = s.Addr
	}
	return out
}

// census reads the registry in one locked walk and returns its live size:
// the live shards' registries summed (a dead shard's suppliers are
// invisible — exactly what its clients experience). Given a report, the
// same walk fills its end-of-run readings: each slot's registry size and,
// when the registry is sharded, its server counters (both zero for a
// crashed slot), and the per-object registration counts.
func (r *registry) census(rep *Report) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep != nil {
		rep.ShardSuppliers = make([]int, len(r.slots))
		if len(r.slots) > 1 {
			rep.ShardStats = make([]directory.Stats, len(r.slots))
		}
		if len(r.objects) > 0 {
			rep.ObjectSuppliers = make(map[string]int, len(r.objects))
		}
	}
	total := 0
	for i, s := range r.slots {
		if !s.up {
			continue
		}
		n := s.Server.Len()
		total += n
		if rep == nil {
			continue
		}
		rep.ShardSuppliers[i] = n
		if rep.ShardStats != nil {
			rep.ShardStats[i] = s.Server.Stats()
		}
		for _, f := range r.objects {
			rep.ObjectSuppliers[f.Name] += s.Server.ObjectLen(f.Name)
		}
	}
	return total
}

// settle is the elastic settle step: it lets trailing flips, migrations
// and overlap windows settle before the zero-loss audit reads the final
// registries, waiting until the epoch holds still across two refresh
// periods.
func (h *harness) settle() {
	if !h.elastic() {
		return
	}
	for i := 0; i < 8; i++ {
		e := h.reg.ctrl.Epoch()
		h.clk.Sleep(2 * shardRefresh)
		if h.reg.ctrl.Epoch() == e {
			break
		}
	}
}

// lostRegistrations audits the elastic registry's zero-loss contract at
// the end of the run: every live supplier's registration must be present
// on the shard owning its peer ID under the final epoch's ring. It
// returns the missing id (or id/object) keys, sorted; nil when the
// registry is not elastic.
func (h *harness) lostRegistrations() []string {
	if !h.elastic() {
		return nil
	}
	epoch, members := h.reg.ctrl.Snapshot()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	ring, err := directory.NewShardRingOf(epoch, names, directory.ShardPoints)
	if err != nil {
		return []string{fmt.Sprintf("audit ring: %v", err)}
	}
	h.mu.Lock()
	nodes := maps.Clone(h.nodes)
	h.mu.Unlock()
	var lost []string
	for _, id := range slices.Sorted(maps.Keys(nodes)) {
		n := nodes[id]
		owner := members[ring.Owner(id)].Server
		if len(h.spec.Objects) == 0 {
			if n.Supplying() && !owner.Has(id, "") {
				lost = append(lost, id)
			}
			continue
		}
		for _, f := range h.spec.Objects {
			if n.SupplyingObject(f.Name) && !owner.Has(id, f.Name) {
				lost = append(lost, id+"/"+f.Name)
			}
		}
	}
	return lost
}
