package chordnet

import (
	"slices"
	"testing"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// registerObject grows a joined member's supplied-object set (the
// requester-turned-supplier path for one more object).
func (f *fixture) registerObject(name, object string) {
	f.t.Helper()
	p := f.peers[name]
	err := p.Register(ctx, transport.Register{
		ID: name, Addr: "overlay-" + name + ":9", Class: 1, Object: object,
	})
	if err != nil {
		f.t.Fatalf("register %s object %s: %v", name, object, err)
	}
}

// sampleIDs draws candidates for one object and returns the ID set.
func (f *fixture) sampleIDs(p *Peer, object string, m int) map[string]bool {
	f.t.Helper()
	cands, err := p.Candidates(ctx, object, m, "")
	if err != nil {
		f.t.Fatalf("candidates %q: %v", object, err)
	}
	ids := map[string]bool{}
	for _, c := range cands {
		ids[c.ID] = true
	}
	return ids
}

// TestCandidatesFilterByObject: contacts carry their supplied-object
// sets, and Candidates skips owners whose set does not list the object.
// Every member's contact lists its objects from its first Register on, so
// the filter never has to guess.
func TestCandidatesFilterByObject(t *testing.T) {
	f := newFixture(t)
	members := []string{"s0", "s1", "s2", "s3"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")

	// s0 and s1 supply v1, s1 and s2 supply v2, s3 supplies v3 only.
	f.registerObject("s0", "v1")
	f.registerObject("s1", "v1")
	f.registerObject("s1", "v2")
	f.registerObject("s2", "v2")
	f.registerObject("s3", "v3")

	r := f.newPeer("req", 1)
	allowed := map[string]map[string]bool{
		"v1": {"s0": true, "s1": true},
		"v2": {"s1": true, "s2": true},
		"v3": {"s3": true},
	}
	for object, want := range allowed {
		// Contacts spread object sets through stabilization, and a stale
		// contact with an empty set passes the filter in the interim; the
		// converged sample must be exactly the supplier pool, though.
		f.waitFor(func() bool {
			ids := f.sampleIDs(r, object, len(members))
			if len(ids) != len(want) {
				return false
			}
			for id := range want {
				if !ids[id] {
					return false
				}
			}
			return true
		}, "exact supplier pool for "+object)
	}

	// Every registered member advertises every object it registered: the
	// contact a lookup of its own position answers lists them all (the
	// fixture joins each member under the name "").
	advertised := map[string][]string{
		"s0": {"", "v1"}, "s1": {"", "v1", "v2"}, "s2": {"", "v2"}, "s3": {"", "v3"},
	}
	for name, objects := range advertised {
		f.waitFor(func() bool {
			c, err := r.LookupKey(ctx, chord.VirtualPosition(name, 0))
			return err == nil && c.Name == name && slices.Equal(c.Objects, objects)
		}, name+"'s advertised object set")
	}

	// Withdrawing one object of a multi-object member narrows the filter
	// without leaving the ring: s1 drops v2, v2's pool shrinks to s2, and
	// s1 keeps answering for v1.
	if err := f.peers["s1"].Unregister(ctx, "s1", "v2"); err != nil {
		t.Fatal(err)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "ring after partial withdrawal")
	f.waitFor(func() bool {
		ids := f.sampleIDs(r, "v2", len(members))
		return len(ids) == 1 && ids["s2"] && !ids["s1"]
	}, "v2 pool narrowed to s2")
	f.waitFor(func() bool {
		return f.sampleIDs(r, "v1", len(members))["s1"]
	}, "s1 still supplying v1")
}

// TestUnregisterUnknownObjectKeepsMembership: withdrawing an object the
// member does not supply — one it never registered, or one it already
// withdrew — is nothing to do. It used to fall through the
// partial-withdrawal test into the full-leave path: records withdrawn,
// leave notices sent, Joined() false, with the object set still naming what
// the member supplies.
func TestUnregisterUnknownObjectKeepsMembership(t *testing.T) {
	f := newFixture(t)
	members := []string{"s0", "s1", "s2"}
	for _, m := range members {
		f.addMember(m, 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "stabilization")
	f.registerObject("s1", "v1")
	f.registerObject("s1", "v2")

	s1 := f.peers["s1"]
	for _, object := range []string{"never", "v2", "v2"} {
		if err := s1.Unregister(ctx, "s1", object); err != nil {
			t.Fatalf("unregister %q: %v", object, err)
		}
		if !s1.Joined() {
			t.Fatalf("unregistering %q: s1 left the ring while still supplying v1", object)
		}
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, members) }, "ring still whole")
	r := f.newPeer("req", 1)
	f.waitFor(func() bool { return f.sampleIDs(r, "v1", len(members))["s1"] }, "s1 still sampled for v1")
	f.waitFor(func() bool { return !f.sampleIDs(r, "v2", len(members))["s1"] }, "s1 no longer sampled for v2")
}
