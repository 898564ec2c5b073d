package chordnet

import (
	"slices"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// registry is one member's share of the replicated registration records,
// keyed by virtual position: the member's own records (its pos-0 record is
// always here — the self-record invariant that makes record answers match
// topological answers at V=1), the records of its primary key range
// (pred, self], and replicas pushed by the K predecessors replicating to
// it. Like ring, a plain value Peer calls under its mutex. Every mutation
// goes through upsert or remove, which version the store themselves.
type registry struct {
	self  string // this member's name: its own records survive hearsay
	store map[uint64]transport.ChordRecord
	// ver counts store mutations; pushed remembers, per successor name, the
	// version last pushed there, so stabilization re-replicates only when
	// something changed (or a fresh successor appears).
	ver    int64
	pushed map[string]int64
}

func newRegistry(self string) registry {
	return registry{self: self, store: make(map[uint64]transport.ChordRecord)}
}

// reset forgets every record and push (a member leaving the ring). The
// version keeps counting: a push of the old store still in flight must not
// look current to the next incarnation.
func (g *registry) reset() {
	g.store = make(map[uint64]transport.ChordRecord)
	g.pushed = nil
	g.touch()
}

func (g *registry) touch() { g.ver++ }

// upsert merges one record into the store: a record loses to a stored copy
// with a newer epoch (a later incarnation of the member) and a
// byte-identical copy is a no-op — critical, because replica pushes re-send
// unchanged records and a no-op must not count as a store mutation (a
// version bump here would re-trigger pushes ring-wide, forever).
func (g *registry) upsert(rec transport.ChordRecord) {
	if rec.Peer.Name == "" {
		return
	}
	if old, ok := g.store[rec.Pos]; ok && (old.Peer.Epoch > rec.Peer.Epoch || contactsEqual(old.Peer, rec.Peer)) {
		return
	}
	g.store[rec.Pos] = rec
	g.touch()
}

func (g *registry) remove(pos uint64) {
	delete(g.store, pos)
	g.touch()
}

// contactsEqual compares contacts field by field (ChordContact carries a
// slice, so == does not apply).
func contactsEqual(a, b transport.ChordContact) bool {
	return a.Name == b.Name && a.Addr == b.Addr && a.NodeAddr == b.NodeAddr &&
		a.Class == b.Class && a.Epoch == b.Epoch && slices.Equal(a.Objects, b.Objects)
}

// restamp refreshes the stored copies of this member's own records with
// its current contact, so record answers served from here carry a changed
// object set immediately.
func (g *registry) restamp(self transport.ChordContact) {
	for pos, r := range g.store {
		if r.Peer.Name == g.self {
			g.upsert(transport.ChordRecord{Pos: pos, Peer: self})
		}
	}
}

// best returns the stored record owning the key: the one at the smallest
// clockwise distance at-or-after it (the circular-successor rule records
// share with members). Records named in dead are skipped — the caller
// observed those members unreachable this resolution — without deleting
// them: the caller's evidence is not this store's.
func (g *registry) best(key uint64, dead []string) (best transport.ChordRecord, found bool) {
	for pos, r := range g.store {
		// Clockwise distances, wrapping mod 2^64.
		if !slices.Contains(dead, r.Peer.Name) && (!found || pos-key < best.Pos-key) {
			best, found = r, true
		}
	}
	return best, found
}

// inRange returns every record in the circular range (lo, hi].
func (g *registry) inRange(lo, hi uint64) []transport.ChordRecord {
	var out []transport.ChordRecord
	for pos, r := range g.store {
		if chord.InHalfOpen(pos, lo, hi) {
			out = append(out, r)
		}
	}
	return out
}

// split returns the records naming this member and the rest — what a
// leaver withdraws and what it hands to its successor.
func (g *registry) split() (own, others []transport.ChordRecord) {
	for _, r := range g.store {
		if r.Peer.Name == g.self {
			own = append(own, r)
		} else {
			others = append(others, r)
		}
	}
	return own, others
}

// dropPeer deletes every record naming a member observed dead or departed,
// keeping its contact out of record answers from that moment. Never this
// member's own: an RPC failure proves the remote dead, not us.
func (g *registry) dropPeer(name string) {
	if name == g.self {
		return
	}
	for pos, r := range g.store {
		if r.Peer.Name == name {
			g.remove(pos)
		}
	}
}

// apply is the chord-replicate transition. A replace push mirrors the
// sender's authoritative view of its primary range (Lo, Hi]: records there
// it did not push are dropped. Otherwise each record is upserted — or, for
// a withdrawal, deleted when the stored copy names the same member at no
// newer an epoch, so a rejoined member's fresher record survives a late
// withdrawal of the old incarnation — and, publish or withdrawal alike,
// returned for the caller to route on when owns says its position is
// another member's: neither stops at a stale owner it reached mid-flux.
// This member's own records are never deleted on hearsay, nor forwarded.
func (g *registry) apply(req transport.ChordReplicate, owns func(pos uint64) bool) (forward []transport.ChordRecord) {
	if req.Replace && !req.Withdraw {
		pushed := make(map[uint64]bool, len(req.Records))
		for _, r := range req.Records {
			pushed[r.Pos] = true
		}
		for pos, old := range g.store {
			if !pushed[pos] && old.Peer.Name != g.self && chord.InHalfOpen(pos, req.Lo, req.Hi) {
				g.remove(pos)
			}
		}
		for _, r := range req.Records {
			g.upsert(r)
		}
		return nil
	}
	for _, r := range req.Records {
		mine := r.Peer.Name == g.self
		if !req.Withdraw {
			g.upsert(r)
		} else if old, ok := g.store[r.Pos]; ok && !mine && old.Peer.Name == r.Peer.Name && old.Peer.Epoch <= r.Peer.Epoch {
			g.remove(r.Pos)
		}
		if !mine && !owns(r.Pos) {
			forward = append(forward, r)
		}
	}
	return forward
}

// primaries plans one replication round of the primary range (lo, hi]:
// the replace push carrying its records, the store version they were read
// at, and which of the first k successors have not been pushed that
// version yet (none, when nothing changed since the last round). Push
// marks of members no longer among the first k are forgotten, so one that
// returns is pushed afresh.
func (g *registry) primaries(lo, hi uint64, succs []member, k int) (req transport.ChordReplicate, ver int64, targets []transport.ChordContact) {
	if g.pushed == nil {
		g.pushed = make(map[string]int64)
	}
	live := make(map[string]bool, k)
	for _, s := range succs {
		if s.Name == g.self {
			continue
		}
		if len(live) >= k {
			break
		}
		live[s.Name] = true
		if g.pushed[s.Name] < g.ver {
			targets = append(targets, s.ChordContact)
		}
	}
	for name := range g.pushed {
		if !live[name] {
			delete(g.pushed, name)
		}
	}
	if len(targets) == 0 {
		return req, g.ver, nil
	}
	return transport.ChordReplicate{Replace: true, Lo: lo, Hi: hi, Records: g.inRange(lo, hi)}, g.ver, targets
}

// markPushed records a successful push of version ver — unless a reset
// since the push was planned forgot every mark.
func (g *registry) markPushed(name string, ver int64) {
	if g.pushed != nil && g.pushed[name] < ver {
		g.pushed[name] = ver
	}
}
