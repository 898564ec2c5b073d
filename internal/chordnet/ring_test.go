package chordnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// The ring is a value: these tests drive it with no clock, no network and
// no Peer around it, ten thousand seeded schedules at a time. A failure
// prints the seed that replays it.
const propertySeeds = 10000

// pool is the ground-truth membership ring inputs are drawn from, and
// positions the reference position of every name in it.
var pool, positions = func() ([]member, map[string]uint64) {
	ms, ids := make([]member, 40), make(map[string]uint64)
	for i := range ms {
		name := fmt.Sprintf("n%02d", i)
		ms[i] = memberOf(transport.ChordContact{Name: name, Addr: name + ":1", NodeAddr: "overlay-" + name + ":9", Class: 1})
		ids[name] = chord.HashKey(name)
	}
	return ms, ids
}()

// ownerAmong is the ground-truth owner of a key: the first member at or
// clockwise after it.
func ownerAmong(ms []member, key uint64) member {
	best := ms[0]
	for _, m := range ms[1:] {
		if m.id-key < best.id-key {
			best = m
		}
	}
	return best
}

// clockwiseFrom orders members nearest first, walking clockwise from id —
// the order a correct neighbor supplies its successor list in.
func clockwiseFrom(id uint64, ms []member) []member {
	out := append([]member(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].id-id-1 < out[j].id-id-1 })
	return out
}

// someOf draws a random subset of the pool as wire contacts, nearest first
// from id, salted with what a real reply can carry and the ring must drop:
// the receiver itself, a repeat, an unnamed entry.
func someOf(rng *rand.Rand, all []member, id uint64, self member) []transport.ChordContact {
	var picked []member
	for _, m := range all {
		if rng.Intn(2) == 0 {
			picked = append(picked, m)
		}
	}
	var out []transport.ChordContact
	for _, m := range clockwiseFrom(id, picked) {
		out = append(out, m.ChordContact)
		switch rng.Intn(6) {
		case 0:
			out = append(out, m.ChordContact)
		case 1:
			out = append(out, self.ChordContact)
		case 2:
			out = append(out, transport.ChordContact{})
		}
	}
	return out
}

// checkRing asserts what must hold of a member's ring after any transition.
func checkRing(t *testing.T, seed int64, op string, r *ring) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d after %s: %s (succs %v)", seed, op, fmt.Sprintf(format, args...), contacts(r.succs))
	}
	if n := len(r.succs); n < 1 || n > successors {
		fail("successor list of length %d", n)
	}
	for i, s := range r.succs {
		if s.Name == r.self.Name && len(r.succs) > 1 {
			fail("self listed beside other successors")
		}
		if i > 0 && s.id-r.self.id <= r.succs[i-1].id-r.self.id {
			fail("entry %d (%s) is not clockwise after entry %d: duplicate or out of order", i, s.Name, i-1)
		}
	}
	if r.pred.Name == r.self.Name {
		fail("self as predecessor")
	}
	for _, slots := range [][]member{{r.self, r.pred}, r.succs, r.fingers[:]} {
		for i := range slots {
			if m := &slots[i]; m.id != positions[m.Name] {
				fail("%q cached at position %x", m.Name, m.id)
			}
		}
	}
}

// TestRingInvariants: after any sequence of join, setSuccessors, adopt,
// spliceLeave, evict and finger repair — fed lists that are nearest-first,
// as a correct neighbor supplies them, but salted with repeats, the
// receiver itself and unnamed entries — the successor list is
// duplicate-free, nearest-first clockwise, holds self only as the singleton
// fallback and at most `successors` entries, and every cached position is
// the hash of the name beside it. An evicted or departed name is gone from
// every slot at once.
func TestRingInvariants(t *testing.T) {
	all := pool[:12]
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng.Seed(seed)
		self := all[rng.Intn(len(all))]
		any := func() member { return all[rng.Intn(len(all))] }
		r := ring{self: self}
		r.found()
		checkRing(t, seed, "found", &r)
		for step := 0; step < 16; step++ {
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "setSuccessors"
				r.setSuccessors(someOf(rng, all, self.id, self))
			case 1:
				// The joiner's lookup of its own position found succ, and
				// succ answers with its own list: nearest first from both.
				list := someOf(rng, all, self.id, self)
				if len(list) == 0 || list[0].Name == self.Name {
					continue
				}
				op = "join at " + list[0].Name
				r.join(list[0], transport.ChordJoinReply{Predecessor: any().contact(), Successors: list[1:]})
			case 2:
				from := any()
				op = "adopt " + from.Name
				before := r.pred
				reply := r.adopt(from.ChordContact)
				if was := before.contact(); (reply.Predecessor == nil) != (was == nil) || was != nil && reply.Predecessor.Name != was.Name {
					t.Fatalf("seed %d: adopt answered predecessor %v, had %v", seed, reply.Predecessor, was)
				}
				if reply.Self == nil || reply.Self.Name != self.Name {
					t.Fatalf("seed %d: adopt answered self %v", seed, reply.Self)
				}
			case 3:
				leaver := any()
				op = "spliceLeave " + leaver.Name
				wasPred := r.pred.Name == leaver.Name && leaver.Name != self.Name
				notice := transport.ChordLeave{Peer: leaver.ChordContact, Successors: someOf(rng, all, leaver.id, self)}
				if rng.Intn(2) == 0 {
					notice.Predecessor = any().contact()
				}
				if got := r.spliceLeave(notice); got != wasPred {
					t.Fatalf("seed %d: %s reported inheriting=%v, leaver was predecessor=%v", seed, op, got, wasPred)
				}
				if leaver.Name != self.Name && (hasName(r.succs, leaver.Name) || hasName(r.fingers[:], leaver.Name) || r.pred.Name == leaver.Name) {
					t.Fatalf("seed %d: %s left the leaver in the ring", seed, op)
				}
			case 4:
				dead := any()
				op = "evict " + dead.Name
				r.evict(dead.Name)
				if dead.Name != self.Name && (hasName(r.succs, dead.Name) || hasName(r.fingers[:], dead.Name) || r.pred.Name == dead.Name) {
					t.Fatalf("seed %d: %s left the corpse in the ring", seed, op)
				}
			case 5:
				op = "finger repair"
				j, target := r.nextRepair()
				if target != self.id+1<<uint(j) {
					t.Fatalf("seed %d: finger %d targets %x", seed, j, target)
				}
				owner := transport.ChordContact{}
				if rng.Intn(4) > 0 {
					owner = any().ChordContact
				}
				r.setFinger(j, owner)
			}
			checkRing(t, seed, op, &r)
		}
	}
}

// converged builds every member's ring as stabilization leaves it on a
// quiet overlay: the true predecessor, the next `successors` members, and —
// with fingers — every finger at the owner of its target.
func converged(all []member, fingers bool) map[string]*ring {
	order := clockwiseFrom(0, all)
	rings := make(map[string]*ring, len(order))
	for i, m := range order {
		r := &ring{self: m, pred: order[(i+len(order)-1)%len(order)]}
		if len(order) == 1 {
			r.pred = member{}
		}
		for k := 1; k <= successors; k++ {
			r.succs = append(r.succs, order[(i+k)%len(order)])
		}
		r.install(r.succs)
		for j := 0; fingers && j < chord.FingerBits; j++ {
			r.fingers[j] = ownerAmong(all, chord.FingerTarget(m.id, j))
		}
		rings[m.Name] = r
	}
	return rings
}

// walkRings is Peer.walk with the RPCs taken out: one ring.step per hop.
func walkRings(ringOf func(name string) *ring, from string, key uint64) (owner string, hops int) {
	done, next, _ := ringOf(from).step(key)
	for ; !done && hops <= maxHops; hops++ {
		done, next, _ = ringOf(next.Name).step(key)
	}
	return next.Name, hops
}

// TestRingStepRoutesToOwner: on converged rings of 1 to 40 members, a walk
// of ring.step answers from any member, for any key, ends at the key's
// ground-truth owner — in at most log2(n)+1 hops with fingers, and still at
// all (successor lists alone) without.
func TestRingStepRoutesToOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < propertySeeds/10; seed++ {
		rng.Seed(seed)
		all := pool[:1+rng.Intn(len(pool))]
		fingers := rng.Intn(2) == 0
		rings := converged(all, fingers)
		bound := len(all)
		if fingers {
			for bound = 1; 1<<uint(bound-1) < len(all); bound++ {
			}
		}
		for i := 0; i < 10; i++ {
			key, from := rng.Uint64(), all[rng.Intn(len(all))].Name
			want := ownerAmong(all, key).Name
			got, hops := walkRings(func(name string) *ring { return rings[name] }, from, key)
			if got != want || hops > bound {
				t.Fatalf("seed %d (%d members, fingers=%v): key %x from %s reached %s in %d hops, want %s within %d",
					seed, len(all), fingers, key, from, got, hops, want, bound)
			}
			// A lone member has no predecessor to prove its range by.
			if owner := rings[want]; !owner.mayOwn(key) || len(all) > 1 && !owner.owns(key) {
				t.Fatalf("seed %d: %s does not claim key %x it owns", seed, want, key)
			}
		}
	}
}
