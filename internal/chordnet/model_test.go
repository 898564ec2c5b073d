package chordnet

import (
	"math/rand"
	"testing"

	"p2pstream/internal/transport"
)

// overlay is a set of members with the I/O shell taken off: each is its
// ring and its registry, and a message is a method call. It runs the same
// transitions Peer runs under its mutex, in whatever order a test picks.
type overlay map[string]*modelMember

type modelMember struct {
	ring *ring
	reg  registry
}

func overlayOf(rings map[string]*ring) overlay {
	o := make(overlay, len(rings))
	for name, r := range rings {
		o[name] = &modelMember{ring: r, reg: newRegistry(name)}
	}
	return o
}

func (o overlay) walk(from string, key uint64) string {
	owner, _ := walkRings(func(name string) *ring { return o[name].ring }, from, key)
	return owner
}

// deliver is Peer.applyReplicate and Peer.route without the network: the
// receiver applies the push, then routes on what its ring says is another
// member's, while the hop budget lasts.
func (o overlay) deliver(to string, req transport.ChordReplicate) {
	m := o[to]
	for _, rec := range m.reg.apply(req, m.ring.mayOwn) {
		if owner := o.walk(to, rec.Pos); req.Hops < maxForwardHops && owner != to {
			o.deliver(owner, transport.ChordReplicate{Withdraw: req.Withdraw, Records: []transport.ChordRecord{rec}, Hops: req.Hops + 1})
		}
	}
}

func (o overlay) holds(name string, rec transport.ChordRecord) bool {
	r, ok := o[name].reg.store[rec.Pos]
	return ok && r.Peer.Name == rec.Peer.Name
}

// TestRingJoinRacesGracefulLeave is the schedule that told a withdrawal
// and a publish apart. A member J joins just before O, inheriting the lower
// part of O's arc and pulling the records settled there — one of them the
// leaver L's, at position x. L then leaves: its walk for x still ends at
// O, because O's old predecessor P has not yet learned of J. By the time
// the message lands, P may have stabilized (caughtUp) or not.
//
// A publish that took this stale walk was always forwarded by O toward the
// true owner. A withdrawal was applied at O and dropped there, so L's
// record outlived L at J for good. With one route and one registry.apply
// both end wherever the ring lets a forwarded record get: at J once P has
// caught up, back at O (the walk from O still passes the stale P) when it
// has not — that remainder is anti-entropy's, not forwarding's.
func TestRingJoinRacesGracefulLeave(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng.Seed(seed)
		n := 3 + rng.Intn(8)
		all, joiner := pool[:n], pool[n]
		o := overlayOf(converged(all, rng.Intn(2) == 0))
		owner := ownerAmong(all, joiner.id)     // O: the joiner's successor
		pred := o[owner.Name].ring.pred         // P
		leaver := all[rng.Intn(n)].ChordContact // L
		if leaver.Name == owner.Name {
			continue // O's own records leave with its leave notice, not by route
		}
		// Two of L's records in the part of O's arc that J is about to take:
		// one settled before the join, one published across it.
		at := func() uint64 { return pred.id + 1 + rng.Uint64()%(joiner.id-pred.id) }
		settled := transport.ChordRecord{Pos: at(), Peer: leaver}
		late := transport.ChordRecord{Pos: at(), Peer: leaver}
		if settled.Pos == late.Pos {
			continue
		}
		o.deliver(o.walk(leaver.Name, settled.Pos), transport.ChordReplicate{Records: []transport.ChordRecord{settled}})

		// J joins at O: O adopts it, J takes O's answer and pulls its range.
		reply := o[owner.Name].ring.adopt(joiner.ChordContact)
		j := &modelMember{ring: &ring{self: joiner}, reg: newRegistry(joiner.Name)}
		j.ring.join(owner.ChordContact, transport.ChordJoinReply{Predecessor: reply.Predecessor, Successors: reply.Successors})
		for _, r := range o[owner.Name].reg.inRange(j.ring.pred.id, joiner.id) {
			j.reg.upsert(r)
		}
		o[joiner.Name] = j
		if !o.holds(joiner.Name, settled) || !o.holds(owner.Name, settled) {
			t.Fatalf("seed %d: the join did not copy L's record to J", seed)
		}

		// L's walks, taken before P hears of J, answer the stale owner.
		if stale := o.walk(leaver.Name, settled.Pos); stale != owner.Name {
			t.Fatalf("seed %d: walk answered %s, want the stale owner %s", seed, stale, owner.Name)
		}
		caughtUp := rng.Intn(2) == 0
		if caughtUp { // P's next stabilization round: notify O, hear of J
			p := o[pred.Name].ring
			heard := o[owner.Name].ring.adopt(p.self.ChordContact)
			p.setSuccessors(append([]transport.ChordContact{*heard.Predecessor, owner.ChordContact}, heard.Successors...))
		}
		o.deliver(owner.Name, transport.ChordReplicate{Records: []transport.ChordRecord{late}})
		o.deliver(owner.Name, transport.ChordReplicate{Withdraw: true, Records: []transport.ChordRecord{settled}})

		if o.holds(owner.Name, settled) {
			t.Fatalf("seed %d: the stale owner kept the withdrawn record", seed)
		}
		if got := o.holds(joiner.Name, late); got != caughtUp {
			t.Fatalf("seed %d (P caught up: %v): publish reached the new owner: %v", seed, caughtUp, got)
		}
		if got := !o.holds(joiner.Name, settled); got != caughtUp {
			t.Fatalf("seed %d (P caught up: %v): withdrawal reached the new owner: %v — a publish did: %v",
				seed, caughtUp, got, o.holds(joiner.Name, late))
		}
	}
}
