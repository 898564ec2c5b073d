package chordnet

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

const registrySelf = "n00"

// recordOf draws a record on a small identifier circle (positions 0..63,
// so draws collide and ranges bite) naming one of a few members at one of
// a few epochs, with one of two object sets. The object slice is fresh each
// time: equal records must compare equal by content.
func recordOf(rng *rand.Rand) transport.ChordRecord {
	m := pool[rng.Intn(6)].ChordContact
	m.Epoch = int64(rng.Intn(4))
	if rng.Intn(2) == 0 {
		m.Objects = []string{"v1", "v2"}[:1+rng.Intn(2)]
	}
	return transport.ChordRecord{Pos: uint64(rng.Intn(64)), Peer: m}
}

// recordsOf draws up to n records at distinct positions.
func recordsOf(rng *rand.Rand, n int) []transport.ChordRecord {
	var out []transport.ChordRecord
	seen := map[uint64]bool{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		if r := recordOf(rng); !seen[r.Pos] {
			seen[r.Pos] = true
			out = append(out, r)
		}
	}
	return out
}

// TestRegistryTransitions drives a registry through random upserts,
// publishes, withdrawals, replace pushes, evictions and restamps, and
// checks every transition against its contract — above all the one the
// replication loop rests on: the version moves exactly when the store's
// content does. A byte-identical upsert that bumped it would re-trigger
// replica pushes ring-wide, forever.
func TestRegistryTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng.Seed(seed)
		g := newRegistry(registrySelf)
		lo, hi := uint64(rng.Intn(64)), uint64(rng.Intn(64))
		owns := func(pos uint64) bool { return chord.InHalfOpen(pos, lo, hi) }
		for step := 0; step < 16; step++ {
			before, ver := maps.Clone(g.store), g.ver
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "upsert"
				rec := recordOf(rng)
				old, had := before[rec.Pos]
				g.upsert(rec)
				switch got := g.store[rec.Pos]; {
				case had && old.Peer.Epoch > rec.Peer.Epoch:
					if !reflect.DeepEqual(got, old) {
						t.Fatalf("seed %d: epoch %d displaced stored epoch %d", seed, rec.Peer.Epoch, old.Peer.Epoch)
					}
				case !reflect.DeepEqual(got, rec):
					t.Fatalf("seed %d: upsert of %v stored %v", seed, rec, got)
				}
			case 1, 2:
				req := transport.ChordReplicate{Withdraw: rng.Intn(2) == 0, Records: recordsOf(rng, 4)}
				op = "publish"
				if req.Withdraw {
					op = "withdraw"
				}
				forward := g.apply(req, owns)
				var want []transport.ChordRecord
				for _, r := range req.Records {
					if r.Peer.Name != registrySelf && !owns(r.Pos) {
						want = append(want, r)
					}
					old, had := before[r.Pos]
					_, has := g.store[r.Pos]
					gone := had && old.Peer.Name == r.Peer.Name && old.Peer.Epoch <= r.Peer.Epoch && r.Peer.Name != registrySelf
					if req.Withdraw && has != (had && !gone) {
						t.Fatalf("seed %d: withdrawal of %v over %v (stored: %v) left stored: %v", seed, r, old, had, has)
					}
				}
				if !reflect.DeepEqual(forward, want) {
					t.Fatalf("seed %d: %s forwarded %v, want %v (the records of positions outside (%d, %d], never this member's own)",
						seed, op, forward, want, lo, hi)
				}
			case 3:
				op = "replace"
				req := transport.ChordReplicate{Replace: true, Lo: uint64(rng.Intn(64)), Hi: uint64(rng.Intn(64)), Records: recordsOf(rng, 4)}
				pushed := map[uint64]bool{}
				for _, r := range req.Records {
					pushed[r.Pos] = true
				}
				if forward := g.apply(req, owns); forward != nil {
					t.Fatalf("seed %d: a replica push forwarded %v", seed, forward)
				}
				for pos, old := range before {
					_, has := g.store[pos]
					scrubbed := !pushed[pos] && old.Peer.Name != registrySelf && chord.InHalfOpen(pos, req.Lo, req.Hi)
					if has == scrubbed {
						t.Fatalf("seed %d: replace of (%d, %d] pushing %v: record %v at %d stored after: %v", seed, req.Lo, req.Hi, req.Records, old, pos, has)
					}
				}
			case 4:
				name := pool[rng.Intn(6)].Name
				op = "dropPeer " + name
				g.dropPeer(name)
				for pos, r := range before {
					if _, has := g.store[pos]; has != (r.Peer.Name != name || name == registrySelf) {
						t.Fatalf("seed %d: %s: record %v stored after: %v", seed, op, r, has)
					}
				}
			case 5:
				op = "restamp"
				self := pool[0].ChordContact
				self.Epoch = int64(rng.Intn(4))
				g.restamp(self)
				for pos, r := range g.store {
					if old := before[pos]; r.Peer.Name == registrySelf && old.Peer.Epoch <= self.Epoch && !reflect.DeepEqual(r.Peer, self) {
						t.Fatalf("seed %d: restamp left %v at %d", seed, r, pos)
					}
				}
			}
			if changed := !reflect.DeepEqual(before, g.store); changed != (g.ver != ver) {
				t.Fatalf("seed %d after %s: store changed: %v, version %d -> %d", seed, op, changed, ver, g.ver)
			}
			for pos, r := range g.store {
				if r.Pos != pos || r.Peer.Name == "" {
					t.Fatalf("seed %d after %s: record %v stored at %d", seed, op, r, pos)
				}
			}
		}
	}
}

// TestRegistryBestIsNearestClockwise: best answers the record at the
// smallest clockwise distance at or after the key, over the whole 64-bit
// circle, skipping dead-listed members without deleting their records.
func TestRegistryBestIsNearestClockwise(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng.Seed(seed)
		g := newRegistry(registrySelf)
		for i := rng.Intn(12); i > 0; i-- {
			r := recordOf(rng)
			r.Pos = rng.Uint64()
			g.upsert(r)
		}
		var dead []string
		for i := rng.Intn(3); i > 0; i-- {
			dead = append(dead, pool[rng.Intn(6)].Name)
		}
		key, size, ver := rng.Uint64(), len(g.store), g.ver
		var want transport.ChordRecord
		found := false
	scan:
		for pos, r := range g.store {
			for _, d := range dead {
				if r.Peer.Name == d {
					continue scan
				}
			}
			if !found || pos-key < want.Pos-key {
				want, found = r, true
			}
		}
		got, ok := g.best(key, dead)
		if ok != found || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: best(%x, dead %v) = %v %v, want %v %v", seed, key, dead, got, ok, want, found)
		}
		if len(g.store) != size || g.ver != ver {
			t.Fatalf("seed %d: best mutated the store", seed)
		}
		if rs := g.inRange(key, key); len(rs) != size {
			t.Fatalf("seed %d: the whole circle (%x, %x] holds %d of %d records", seed, key, key, len(rs), size)
		}
	}
}

// TestRegistryPushesOnlyWhatChanged: primaries names a successor as a push
// target exactly while it has not acknowledged the current version — so a
// quiet store costs no replication traffic — limited to the first k
// successors that are not this member, and forgets a successor that fell
// out of that set.
func TestRegistryPushesOnlyWhatChanged(t *testing.T) {
	g := newRegistry(registrySelf)
	succs := []member{pool[1], pool[0], pool[2], pool[3]} // n00 is self
	names := func(cs []transport.ChordContact) (out []string) {
		for _, c := range cs {
			out = append(out, c.Name)
		}
		return out
	}
	plan := func(succs []member) []string {
		req, ver, targets := g.primaries(10, 20, succs, 2)
		for _, r := range req.Records {
			if !chord.InHalfOpen(r.Pos, 10, 20) {
				t.Fatalf("push of (10, 20] carries %v", r)
			}
		}
		if len(targets) > 0 && (!req.Replace || req.Lo != 10 || req.Hi != 20 || len(req.Records) != len(g.inRange(10, 20))) {
			t.Fatalf("push request %+v", req)
		}
		for _, c := range targets {
			g.markPushed(c.Name, ver)
		}
		return names(targets)
	}
	if got := plan(succs); got != nil {
		t.Fatalf("an empty, untouched store pushed to %v", got)
	}
	g.upsert(transport.ChordRecord{Pos: 15, Peer: pool[4].ChordContact})
	g.upsert(transport.ChordRecord{Pos: 25, Peer: pool[4].ChordContact})
	if got := plan(succs); !reflect.DeepEqual(got, []string{"n01", "n02"}) {
		t.Fatalf("first push went to %v, want the first two successors that are not self", got)
	}
	if got := plan(succs); got != nil {
		t.Fatalf("nothing changed, pushed again to %v", got)
	}
	g.upsert(transport.ChordRecord{Pos: 15, Peer: pool[4].ChordContact}) // identical: still nothing to push
	if got := plan(succs); got != nil {
		t.Fatalf("a byte-identical upsert re-pushed to %v", got)
	}
	if got := plan([]member{pool[1], pool[3]}); !reflect.DeepEqual(got, []string{"n03"}) {
		t.Fatalf("a new successor: pushed to %v, want only it", got)
	}
	if got := plan(succs); !reflect.DeepEqual(got, []string{"n02"}) {
		t.Fatalf("a successor that fell out and came back: pushed to %v, want it afresh", got)
	}
	g.reset()
	g.markPushed("n01", g.ver) // a push planned before the reset lands after it
	g.upsert(transport.ChordRecord{Pos: 15, Peer: pool[4].ChordContact})
	if got := plan(succs); !reflect.DeepEqual(got, []string{"n01", "n02"}) {
		t.Fatalf("after a reset: pushed to %v, want everyone again", got)
	}
}
