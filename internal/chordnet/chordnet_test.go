package chordnet

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chord"
	"p2pstream/internal/clock"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// ctx is the package-wide test context; cancellation tests derive their own.
var ctx = context.Background()

// fixture is one wire-level ring on a fresh virtual substrate.
type fixture struct {
	t         *testing.T
	clk       *clock.Virtual
	vnet      *netx.Virtual
	peers     map[string]*Peer
	boot      []string      // chord addresses of the founding members
	stabilize time.Duration // stabilization period (default 10ms)
	// virtualNodes/replication parameterize every peer created after they
	// are set (zero: the V=1/K=0 defaults).
	virtualNodes int
	replication  int
	// observer, when non-nil, is installed on every subsequently created
	// peer (replication tests count ReplicaAnswered events with it).
	observer observe.Observer
}

// newFixture builds the fixture most tests use: they wait for a ring
// property and assert no virtual instant, so the clock runs in scale mode
// (the chord-scale scenarios' setting) — a whole 1ms window of causally
// chained deliveries drains per quiescent advance instead of paying the
// wall-clock grace once per hop.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixtureOn(t, time.Millisecond)
}

// newTimedFixture is for the tests that assert how much virtual time an
// exchange took: every event instant is its own advance.
func newTimedFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixtureOn(t, 0)
}

func newFixtureOn(t *testing.T, coalesce time.Duration) *fixture {
	t.Helper()
	clk := clock.NewVirtual()
	clk.SetCoalesce(coalesce) // 0 keeps the default
	stop := clk.AutoRun()
	t.Cleanup(stop)
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	return &fixture{
		t: t, clk: clk, vnet: vnet,
		peers: make(map[string]*Peer), stabilize: 10 * time.Millisecond,
	}
}

// addMember starts a peer on its own virtual host and joins it to the
// ring (the first member founds it).
func (f *fixture) addMember(name string, class bandwidth.Class) *Peer {
	f.t.Helper()
	p := f.newPeer(name, class)
	if err := p.Register(ctx, transport.Register{ID: name, Addr: "overlay-" + name + ":9", Class: class}); err != nil {
		f.t.Fatalf("register %s: %v", name, err)
	}
	f.boot = append(f.boot, p.Addr())
	return p
}

// newPeer starts a non-member peer (bootstrap points at the ring).
func (f *fixture) newPeer(name string, class bandwidth.Class) *Peer {
	f.t.Helper()
	p, err := New(Config{
		ID: name, Class: class,
		Bootstrap:    append([]string(nil), f.boot...),
		Network:      f.vnet.Host(name),
		Clock:        f.clk,
		Seed:         int64(len(f.peers) + 1),
		Stabilize:    f.stabilize,
		VirtualNodes: f.virtualNodes,
		Replication:  f.replication,
		Observer:     f.observer,
	})
	if err != nil {
		f.t.Fatalf("new %s: %v", name, err)
	}
	if err := p.Start(); err != nil {
		f.t.Fatalf("start %s: %v", name, err)
	}
	f.t.Cleanup(func() { p.Close() })
	f.peers[name] = p
	return p
}

// stored reads one registration record out of the peer's registry.
func (p *Peer) stored(pos uint64) (transport.ChordRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.reg.store[pos]
	return r, ok
}

// waitFor polls a condition under virtual time, scaling the budget to the
// fixture's stabilization period.
func (f *fixture) waitFor(cond func() bool, what string) {
	f.t.Helper()
	step := f.stabilize / 2
	if step < 10*time.Millisecond {
		step = 10 * time.Millisecond
	}
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		f.clk.Sleep(step)
	}
	f.t.Fatalf("timed out waiting for %s", what)
}

// ownerOf computes the ground-truth owner of a key among the given
// member names: the first name (by ring position) whose hash is >= key,
// wrapping to the smallest.
func ownerOf(members []string, key uint64) string {
	type pos struct {
		id   uint64
		name string
	}
	ps := make([]pos, len(members))
	for i, m := range members {
		ps[i] = pos{chord.HashKey(m), m}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	for _, p := range ps {
		if p.id >= key {
			return p.name
		}
	}
	return ps[0].name
}

// ringHealthy reports whether every member's first successor is the
// ground-truth ring neighbor of the membership.
func ringHealthy(peers map[string]*Peer, members []string) bool {
	for _, m := range members {
		p := peers[m]
		succs := p.Successors()
		if len(succs) == 0 {
			return false
		}
		want := ownerOf(members, chord.HashKey(m)+1)
		if succs[0].Name != want {
			return false
		}
	}
	return true
}

func TestSingletonFoundsRing(t *testing.T) {
	f := newFixture(t)
	p := f.addMember("solo", 1)
	if !p.Joined() {
		t.Fatal("founder not joined")
	}
	succs := p.Successors()
	if len(succs) != 1 || succs[0].Name != "solo" {
		t.Fatalf("singleton successors = %v", succs)
	}
	owner, err := p.LookupKey(ctx, 12345)
	if err != nil {
		t.Fatalf("singleton lookup: %v", err)
	}
	if owner.Name != "solo" {
		t.Fatalf("singleton owns everything; got %s", owner.Name)
	}
}

func TestJoinAndStabilize(t *testing.T) {
	f := newFixture(t)
	members := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for i, m := range members {
		f.addMember(m, bandwidth.Class(1+i%3))
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) },
		"ring to stabilize into hash order")

	// Every member resolves every key to the ground-truth owner, with the
	// owner's overlay address and class intact.
	for _, m := range members {
		p := f.peers[m]
		for key := uint64(0); key < 40; key++ {
			k := chord.HashKey(fmt.Sprintf("key-%d", key))
			owner, err := p.LookupKey(ctx, k)
			if err != nil {
				t.Fatalf("%s lookup %d: %v", m, key, err)
			}
			if want := ownerOf(members, k); owner.Name != want {
				t.Errorf("%s: owner of %d = %s, want %s", m, k, owner.Name, want)
			}
			if owner.NodeAddr != "overlay-"+owner.Name+":9" {
				t.Errorf("owner %s carries node addr %q", owner.Name, owner.NodeAddr)
			}
		}
	}
}

func TestCrashHealsRing(t *testing.T) {
	f := newFixture(t)
	members := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "initial stabilization")

	f.vnet.SetDown("p2")
	alive := []string{"p0", "p1", "p3", "p4", "p5"}
	// Heads converge first; the corpse then washes out of the deeper
	// successor-list entries as neighbors copy each other's lists.
	healed := func() bool {
		if !ringHealthy(f.peers, alive) {
			return false
		}
		for _, m := range alive {
			for _, s := range f.peers[m].Successors() {
				if s.Name == "p2" {
					return false
				}
			}
		}
		return true
	}
	f.waitFor(healed, "ring to heal around the crashed member")

	// Lookups resolve against the surviving membership only.
	for _, m := range alive {
		for key := uint64(0); key < 25; key++ {
			k := chord.HashKey(fmt.Sprintf("heal-%d", key))
			owner, err := f.peers[m].LookupKey(ctx, k)
			if err != nil {
				t.Fatalf("%s lookup after heal: %v", m, err)
			}
			if want := ownerOf(alive, k); owner.Name != want {
				t.Errorf("%s: owner of %d = %s, want %s", m, k, owner.Name, want)
			}
		}
	}
}

func TestRejoinAfterCrash(t *testing.T) {
	f := newFixture(t)
	members := []string{"p0", "p1", "p2", "p3"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "initial stabilization")

	f.vnet.SetDown("p3")
	crashed := f.peers["p3"]
	alive := []string{"p0", "p1", "p2"}
	f.waitFor(func() bool { return ringHealthy(f.peers, alive) }, "heal after crash")
	crashed.Close()

	// The host revives with empty state — a fresh incarnation under the
	// same name must be able to rejoin through the surviving members.
	f.vnet.SetUp("p3")
	p := f.newPeer("p3", 2)
	if err := p.Register(ctx, transport.Register{ID: "p3", Addr: "overlay-p3:9", Class: 2}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "ring to absorb the rejoin")
	k := chord.HashKey("rejoin-probe")
	owner, err := f.peers["p0"].LookupKey(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := ownerOf(members, k); owner.Name != want {
		t.Errorf("owner after rejoin = %s, want %s", owner.Name, want)
	}
}

func TestCandidatesFromNonMember(t *testing.T) {
	f := newFixture(t)
	members := []string{"s0", "s1", "s2", "s3", "s4"}
	for i, m := range members {
		f.addMember(m, bandwidth.Class(1+i%2))
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	r := f.newPeer("req", 1) // never joins: samples via bootstrap key-lookups
	cands, err := r.Candidates(ctx, "", 4, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("sampled only %d candidates from a 5-member ring", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if c.ID == "req" || c.ID == "s0" {
			t.Errorf("candidate %s should have been excluded", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate candidate %s", c.ID)
		}
		seen[c.ID] = true
		if c.Addr == "" {
			t.Errorf("candidate %s has no overlay address", c.ID)
		}
	}

	// A member samples too (the requester-turned-supplier path).
	cands, err = f.peers["s1"].Candidates(ctx, "", 3, "s1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.ID == "s1" {
			t.Error("member sampled itself")
		}
	}
}

func TestUnregisterLeavesRing(t *testing.T) {
	f := newFixture(t)
	members := []string{"a", "b", "c", "d"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	if err := f.peers["b"].Unregister(ctx, "b", ""); err != nil {
		t.Fatal(err)
	}
	if f.peers["b"].Joined() {
		t.Fatal("still joined after Unregister")
	}
	rest := []string{"a", "c", "d"}
	f.waitFor(func() bool { return ringHealthy(f.peers, rest) },
		"ring to splice out the departed member")
	k := chord.HashKey("post-leave")
	owner, err := f.peers["a"].LookupKey(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := ownerOf(rest, k); owner.Name != want {
		t.Errorf("owner after leave = %s, want %s", owner.Name, want)
	}
}

// TestGracefulLeaveClosesStalenessWindow is the regression test for the
// chord-leave handover: with stabilization far too slow to help (500ms
// period), a graceful leave must splice the ring by itself — the successor
// inherits the leaver's key range and predecessor, the predecessor's
// successor head advances, and every member resolves every key against
// the shrunken membership immediately, not one stabilization round later.
func TestGracefulLeaveClosesStalenessWindow(t *testing.T) {
	f2 := newTimedFixture(t)
	f2.stabilize = 500 * time.Millisecond
	members := []string{"a", "b", "c", "d", "e"}
	for _, m := range members {
		f2.addMember(m, 1)
	}
	f2.waitFor(func() bool { return ringHealthy(f2.peers, members) }, "slow-ring stabilization")

	leaver := "c"
	rest := []string{"a", "b", "d", "e"}
	succName := ownerOf(members, chord.HashKey(leaver)+1)
	var predName string
	for _, m := range members {
		if ownerOf(members, chord.HashKey(m)+1) == leaver {
			predName = m
		}
	}
	left := f2.clk.Now()
	if err := f2.peers[leaver].Unregister(ctx, leaver, ""); err != nil {
		t.Fatal(err)
	}

	// The splice is visible at the neighbors immediately (the leave RPCs
	// cost two link latencies, not a 500ms stabilization round).
	succs := f2.peers[predName].Successors()
	if len(succs) == 0 || succs[0].Name != succName {
		t.Fatalf("predecessor %s's successor head = %v, want %s", predName, succs, succName)
	}
	for _, s := range succs {
		if s.Name == leaver {
			t.Fatalf("leaver still in predecessor's successor list: %v", succs)
		}
	}
	if pred := f2.peers[succName].Predecessor(); pred == nil || pred.Name != predName {
		t.Fatalf("successor %s's predecessor = %v, want %s", succName, pred, predName)
	}

	// Members resolve keys against the shrunken ring, now.
	for _, m := range []string{predName, succName} {
		for k := 0; k < 8; k++ {
			key := chord.HashKey(fmt.Sprintf("leave-%d", k))
			owner, err := f2.peers[m].LookupKey(ctx, key)
			if err != nil {
				t.Fatalf("%s lookup right after leave: %v", m, err)
			}
			if want := ownerOf(rest, key); owner.Name != want {
				t.Errorf("%s: owner of %d = %s, want %s", m, key, owner.Name, want)
			}
		}
	}
	if waited := f2.clk.Since(left); waited >= 500*time.Millisecond {
		t.Fatalf("assertions took %v of virtual time; stabilization could have healed the ring", waited)
	}
}

// TestLookupStats: the discovery-cost counters track candidate sampling
// on both the member walk and the delegated non-member path.
func TestLookupStats(t *testing.T) {
	f := newFixture(t)
	members := []string{"s0", "s1", "s2", "s3"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	r := f.newPeer("req", 1) // non-member: delegated lookups
	if _, err := r.Candidates(ctx, "", 3, ""); err != nil {
		t.Fatal(err)
	}
	lookups, hops, rounds := r.LookupStats()
	if lookups == 0 {
		t.Error("non-member sampled candidates without counting lookups")
	}
	if rounds == 0 {
		t.Error("no sample rounds counted")
	}
	if hops < 0 {
		t.Errorf("negative hops %d", hops)
	}

	m := f.peers["s0"]
	before, _, beforeRounds := m.LookupStats()
	if _, err := m.Candidates(ctx, "", 2, "s0"); err != nil {
		t.Fatal(err)
	}
	after, _, afterRounds := m.LookupStats()
	if after <= before {
		t.Errorf("member lookups went %d -> %d across a Candidates call", before, after)
	}
	if afterRounds <= beforeRounds {
		t.Errorf("member rounds went %d -> %d", beforeRounds, afterRounds)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := New(Config{ID: "x", Class: 99}); err == nil {
		t.Error("invalid class accepted")
	}
	p, err := New(Config{ID: "x", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Register(ctx, transport.Register{ID: "x", Addr: "a:1", Class: 1}); err == nil {
		t.Error("register before Start accepted")
	}
	if err := p.Register(ctx, transport.Register{ID: "other", Addr: "a:1", Class: 1}); err == nil {
		t.Error("register for a foreign ID accepted")
	}
	if err := p.Unregister(ctx, "other", ""); err == nil {
		t.Error("unregister for a foreign ID accepted")
	}
}
