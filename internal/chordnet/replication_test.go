package chordnet

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/chord"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// replicasSettled reports whether every member's own records are stored
// at its first k live successors (the replication invariant the
// stabilization pushes establish).
func replicasSettled(f *fixture, names []string, k int) bool {
	for _, n := range names {
		p := f.peers[n]
		succs := p.Successors()
		if len(succs) == 0 {
			return false
		}
		count := 0
		for _, s := range succs {
			if count == k {
				break
			}
			if s.Name == n {
				continue
			}
			count++
			holder := f.peers[s.Name]
			if holder == nil {
				return false
			}
			r, ok := holder.stored(chord.HashKey(n))
			if !ok || r.Peer.Name != n {
				return false
			}
		}
	}
	return true
}

// TestReplicationClosesChurnWindow is the tentpole regression: with K=3
// replication, the instant an owner crashes — before any stabilization
// round can evict it — a lookup of a key it owned must still answer a
// live supplier, served from a replica. Pre-replication, every lookup of
// the crashed member's range failed or answered the corpse until
// stabilization healed the ring: that window must be zero.
func TestReplicationClosesChurnWindow(t *testing.T) {
	var replicaAnswered atomic.Int64
	f := newTimedFixture(t)
	f.replication = 3
	// Stabilization far too slow to help mid-assertion (the
	// TestGracefulLeaveClosesStalenessWindow trick): the replica fail-over
	// itself must close the window, not a repair round that slipped in.
	f.stabilize = 500 * time.Millisecond
	f.observer = observe.Func(func(ev observe.Event) {
		if ev.Type == observe.ReplicaAnswered {
			replicaAnswered.Add(1)
		}
	})
	members := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")
	f.waitFor(func() bool { return replicasSettled(f, members, 3) }, "replicas to settle")

	victim := "r5"
	f.vnet.SetDown(victim)
	crashedAt := f.clk.Now()

	// Every surviving member resolves the victim's own key immediately:
	// the walk still routes to the corpse, the pull fails, and a backup
	// answers from its replica — a live member, not the corpse.
	alive := []string{"r0", "r1", "r2", "r3", "r4", "r6", "r7"}
	key := chord.HashKey(victim)
	for _, m := range alive {
		owner, err := f.peers[m].LookupKey(ctx, key)
		if err != nil {
			t.Fatalf("%s: lookup of crashed owner's key: %v", m, err)
		}
		if owner.Name == victim {
			t.Errorf("%s: lookup answered the corpse %s", m, victim)
		}
		if owner.NodeAddr == "" {
			t.Errorf("%s: replica answer %s carries no overlay address", m, owner.Name)
		}
	}
	if got := replicaAnswered.Load(); got == 0 {
		t.Error("no ReplicaAnswered event observed; answers did not come from replicas")
	}
	// The window is zero in the only time that exists here: virtual time.
	// The assertions must fit inside one (500ms) stabilization period, so
	// no repair round can have healed the ring for us.
	if waited := f.clk.Since(crashedAt); waited >= f.stabilize {
		t.Fatalf("assertions consumed %v of virtual time; stabilization could have healed the ring", waited)
	}

	// Candidate pools stay populated through the crash, too.
	cands, err := f.peers["r0"].Candidates(ctx, "", 4, "r0")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates mid-crash")
	}
	for _, c := range cands {
		if c.ID == victim {
			t.Errorf("corpse %s sampled as candidate", victim)
		}
	}
}

// TestGracefulLeaveWithdrawsRecords: a member that unregisters takes its
// registration records with it — with virtual nodes, the records planted
// at other owners included — so lookups never answer a departed peer.
func TestGracefulLeaveWithdrawsRecords(t *testing.T) {
	f := newFixture(t)
	f.virtualNodes = 8
	f.replication = 2
	members := []string{"w0", "w1", "w2", "w3", "w4"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	leaver := "w2"
	if err := f.peers[leaver].Unregister(ctx, leaver, ""); err != nil {
		t.Fatal(err)
	}
	rest := []string{"w0", "w1", "w3", "w4"}
	f.waitFor(func() bool { return ringHealthy(f.peers, rest) }, "splice after leave")
	// Every managed copy of the leaver's records is gone: for each of its
	// V virtual positions, the position's current owner (withdrawal
	// target, leave-notice drop) and the owner's K successors
	// (replace-push scrubbing) hold nothing in the leaver's name. Stray
	// copies parked at stale owners mid-flux may outlive this — resolution
	// never answers them, as the lookups below assert.
	f.waitFor(func() bool {
		for v := 0; v < 8; v++ {
			pos := chord.VirtualPosition(leaver, v)
			holders := []string{ownerOf(rest, pos)}
			for i, s := range f.peers[holders[0]].Successors() {
				if i == 2 || s.Name == holders[0] {
					break
				}
				holders = append(holders, s.Name)
			}
			for _, h := range holders {
				p := f.peers[h]
				r, ok := p.stored(pos)
				if ok && r.Peer.Name == leaver {
					return false
				}
			}
		}
		return true
	}, "leaver records to be withdrawn at their owners and replicas")

	keys := make([]uint64, 0, 40)
	for v := 0; v < 8; v++ {
		keys = append(keys, chord.VirtualPosition(leaver, v))
	}
	for i := 0; i < 32; i++ {
		keys = append(keys, chord.HashKey(fmt.Sprintf("wk-%d", i)))
	}
	for _, k := range keys {
		owner, err := f.peers["w0"].LookupKey(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if owner.Name == leaver {
			t.Fatalf("lookup of %d answered departed member %s", k, leaver)
		}
	}
}

// TestCandidatesPreferNewestContact is the regression for the
// stale-address merge defect: sampling rounds can surface two record
// copies of the same member — one from before a node-layer restart (old
// overlay address), one after — and the merged candidate must carry the
// newest contact, never an address the member already abandoned. Both
// incarnations keep a live chord endpoint (resolution's liveness vetting
// would filter a record whose chord address is dead), so only the merge
// logic stands between the requester and the stale overlay port.
func TestCandidatesPreferNewestContact(t *testing.T) {
	f := newFixture(t)
	p := f.addMember("base", 1)
	f.waitFor(func() bool { return p.Joined() }, "founder")

	// Seed the founder's store with two incarnations of the same member
	// at virtual positions covering the antipode and three-quarter arcs
	// (relative to the founder, so both draw with high probability
	// whatever "base" hashes to). The chord endpoint is the founder's own
	// live listener; the overlay address and epoch are what the restart
	// changed.
	base := chord.HashKey("base")
	now := f.clk.Now().UnixNano()
	old := transport.ChordRecord{
		Pos: base + 1<<63,
		Peer: transport.ChordContact{
			Name: "ghost", Addr: p.Addr(), NodeAddr: "overlay-ghost:1",
			Class: 1, Epoch: now + 1, Objects: []string{"video"},
		},
	}
	fresh := transport.ChordRecord{
		Pos: base + 3<<62,
		Peer: transport.ChordContact{
			Name: "ghost", Addr: p.Addr(), NodeAddr: "overlay-ghost:2",
			Class: 1, Epoch: now + 2, Objects: []string{"video"},
		},
	}
	p.mu.Lock()
	p.reg.upsert(old)
	p.reg.upsert(fresh)
	p.mu.Unlock()

	sawBoth := false
	for tries := 0; tries < 8 && !sawBoth; tries++ {
		cands, err := p.Candidates(ctx, "video", 4, "")
		if err != nil {
			t.Fatal(err)
		}
		ghosts := 0
		for _, c := range cands {
			if c.ID != "ghost" {
				continue
			}
			ghosts++
			if c.Addr != "overlay-ghost:2" {
				t.Fatalf("candidate dials abandoned address %s; want overlay-ghost:2", c.Addr)
			}
		}
		if ghosts > 1 {
			t.Fatalf("ghost deduplicated into %d candidates", ghosts)
		}
		sawBoth = ghosts == 1
	}
	if !sawBoth {
		t.Fatal("sampling never surfaced the ghost member")
	}
}

// TestWithdrawAtStaleOwnerReachesOwner: a withdrawal takes the path a
// publish takes. The leaver's walk can answer the member that owned the
// position before a join split its arc; that stale owner used to delete its
// own copy and stop, so the copy the joiner had pulled at join time
// outlived the leaver for good. Now the stale owner routes the withdrawal
// on, as it always did a publish.
func TestWithdrawAtStaleOwnerReachesOwner(t *testing.T) {
	f := newFixture(t)
	members := []string{"a", "b", "c", "d"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	// owner holds the record of a departed member at its own position - 1;
	// stale, its successor, still holds the copy it owned that arc with.
	owner := f.peers["b"]
	stale := f.peers[ownerOf(members, chord.HashKey("b")+1)]
	f.waitFor(func() bool { pred := stale.Predecessor(); return pred != nil && pred.Name == "b" },
		"the stale owner to know its arc ends at b")
	rec := transport.ChordRecord{
		Pos:  chord.HashKey("b") - 1,
		Peer: transport.ChordContact{Name: "gone", Addr: "gone:1", NodeAddr: "overlay-gone:9", Class: 1, Epoch: 1},
	}
	for _, p := range []*Peer{owner, stale} {
		p.mu.Lock()
		p.reg.upsert(rec)
		p.mu.Unlock()
	}
	var reply transport.ChordReplicateReply
	err := owner.call(ctx, stale.Addr(), transport.KindChordReplicate,
		transport.ChordReplicate{Withdraw: true, Records: []transport.ChordRecord{rec}},
		transport.KindChordReplicateOK, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stale.stored(rec.Pos); ok {
		t.Error("stale owner kept the withdrawn record")
	}
	f.waitFor(func() bool { _, ok := owner.stored(rec.Pos); return !ok },
		"withdrawal to be routed on to the position's owner")
}
