package scenario

import (
	"fmt"
	"maps"
	"slices"

	"p2pstream/internal/directory"
	"p2pstream/internal/media"
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

// registry is the run's directory side: the deployment of its registry
// shards (one for the centralized directory, none under pure chord
// discovery) and, when the registry is elastic, the controller that
// grows and drains it.
type registry struct {
	dep *reshard.Deployment
	// objects are the catalog objects counted per object at the end: set
	// in directory-backed runs (the chord census does not split by
	// object).
	objects []*media.File
}

// bootRegistry is the registry step. Chord discovery needs no directory
// at all; a scenario may still ask for one (KeepDirectory) purely to
// crash it and prove the point. The directory backend deploys shardCount
// registry shards (1 = the plain centralized server), pinned as p2pdir
// pins its -shards set, and, when the spec autoscales, the controller
// over them. The registry closes at teardown.
func (h *harness) bootRegistry() error {
	if h.chordBacked() && !h.spec.KeepDirectory {
		return nil
	}
	if !h.chordBacked() {
		h.reg.objects = h.spec.Objects
	}
	var autoscale *reshard.Config
	if a := h.spec.Autoscale; a != nil {
		autoscale = &reshard.Config{
			Clock:      h.clk,
			Interval:   a.Interval,
			HighWater:  a.HighWater,
			LowWater:   a.LowWater,
			Sustain:    a.Sustain,
			MaxShards:  a.MaxShards,
			DrainGrace: a.DrainGrace,
			Observer:   &h.tally,
		}
	}
	// Shard i lives on ShardHost(i). A rebirth (addr set) re-listens on
	// the shard's fixed address and bumps the candidate-sampling seed: a
	// fresh server must not replay the dead one's sampling stream.
	seed := h.spec.Seed
	boot := func(i int, addr string) (*directory.Server, string, error) {
		generation := 0
		if addr != "" {
			generation = 1
		}
		srv := directory.NewServer(seed + int64(i)*1009 + int64(generation)*500009)
		bound, err := srv.Start(h.net.Host(ShardHost(i)), addr)
		return srv, bound, err
	}
	dep, err := reshard.Deploy(h.spec.shardCount(), boot, autoscale)
	if err != nil {
		return err
	}
	h.reg.dep = dep
	h.onClose(dep.Close)
	return nil
}

// census fills the report's end-of-run registry readings in one walk:
// each shard's registry size and, when the registry is sharded, its
// server counters (both zero for a crashed or retired shard), and the
// per-object registration counts.
func (r *registry) census(rep *Report) {
	var shards []reshard.Member
	if r.dep != nil {
		shards = r.dep.Shards()
	}
	rep.ShardSuppliers = make([]int, len(shards))
	if len(shards) > 1 {
		rep.ShardStats = make([]directory.Stats, len(shards))
	}
	if len(r.objects) > 0 {
		rep.ObjectSuppliers = make(map[string]int, len(r.objects))
	}
	for i, s := range shards {
		if s.Server == nil {
			continue
		}
		rep.ShardSuppliers[i] = s.Server.Len()
		if rep.ShardStats != nil {
			rep.ShardStats[i] = s.Server.Stats()
		}
		for _, f := range r.objects {
			rep.ObjectSuppliers[f.Name] += s.Server.ObjectLen(f.Name)
		}
	}
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
		e := h.reg.dep.Controller().Epoch()
		h.clk.Sleep(2 * shardRefresh)
		if h.reg.dep.Controller().Epoch() == e {
			break
		}
	}
}

// lostRegistrations audits the elastic registry's zero-loss contract at
// the end of the run: every live supplier's registration must be present
// on the shard owning its peer ID under the final epoch's ring. It
// returns the missing id/object keys, sorted; nil when the
// registry is not elastic.
func (h *harness) lostRegistrations() []string {
	if !h.elastic() {
		return nil
	}
	epoch, members := h.reg.dep.Controller().Snapshot()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	ring, err := directory.NewShardRingOf(epoch, names)
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
		for _, f := range h.spec.Objects {
			if n.SupplyingObject(f.Name) && !owner.Has(id, f.Name) {
				lost = append(lost, id+"/"+f.Name)
			}
		}
	}
	return lost
}
