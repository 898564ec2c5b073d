package chordnet

import (
	"slices"
	"sort"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// member is one ring neighbor: the contact and, beside it, the ring
// position its name hashes to — computed once, by memberOf, so the routing
// hot path (closestPreceding scans the whole finger table per step) never
// re-hashes a name. The zero member is the empty slot.
type member struct {
	transport.ChordContact
	id uint64
}

// memberOf is the one place a contact's ring position is computed.
func memberOf(c transport.ChordContact) member {
	return member{ChordContact: c, id: chord.HashKey(c.Name)}
}

func (m member) known() bool { return m.Name != "" }

// contact copies the member's contact out for a reply or a notice; nil for
// the empty slot.
func (m member) contact() *transport.ChordContact {
	if !m.known() {
		return nil
	}
	c := m.ChordContact
	return &c
}

// contacts copies a member list out as wire contacts.
func contacts(ms []member) []transport.ChordContact {
	if len(ms) == 0 {
		return nil
	}
	out := make([]transport.ChordContact, len(ms))
	for i, m := range ms {
		out[i] = m.ChordContact
	}
	return out
}

func hasName(ms []member, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// ring is one member's view of the identifier circle: itself, its
// predecessor, its successor list and its finger table. A plain value — no
// lock, no clock, no connection: every method is a transition of that state
// or a question about it, called by Peer under its one mutex, and what a
// transition cannot do itself (dial the next hop) it returns for Peer to do.
type ring struct {
	self member
	pred member // empty: not known (yet)
	// succs is nearest first; [self] on a singleton ring, empty off the ring.
	succs      []member
	fingers    [chord.FingerBits]member
	nextFinger int
}

// owns reports whether pos lies in this member's primary key range
// (pred, self] as far as it can prove: its own position always, anything
// else only under a known predecessor.
func (r *ring) owns(pos uint64) bool {
	return pos == r.self.id || r.pred.known() && chord.InHalfOpen(pos, r.pred.id, r.self.id)
}

// mayOwn is owns with the benefit of the doubt: without a predecessor the
// range is undefined, and a record that landed here is better kept than
// bounced.
func (r *ring) mayOwn(pos uint64) bool { return !r.pred.known() || r.owns(pos) }

// step performs one local routing step: done when this member's successor
// owns the key (the further successors ride along as the owner's replica
// holders), otherwise the closest preceding contact to continue from.
func (r *ring) step(key uint64) (done bool, next transport.ChordContact, backups []transport.ChordContact) {
	succ := r.self
	if len(r.succs) > 0 {
		succ = r.succs[0]
	}
	if succ.Name != r.self.Name && !chord.InHalfOpen(key, r.self.id, succ.id) {
		if hop := r.closestPreceding(key); hop.Name != r.self.Name {
			return false, hop.ChordContact, nil
		}
	}
	return true, succ.ChordContact, r.backups()
}

// backups returns the successors behind the head — the replica holders of
// the head successor's range, in fail-over order.
func (r *ring) backups() []transport.ChordContact {
	if len(r.succs) < 2 {
		return nil
	}
	return contacts(r.succs[1:])
}

// closestPreceding returns the furthest known contact strictly between
// this member and the key: fingers high to low, then the successor list,
// then self.
func (r *ring) closestPreceding(key uint64) member {
	for j := chord.FingerBits - 1; j >= 0; j-- {
		if f := r.fingers[j]; f.known() && f.Name != r.self.Name && chord.InOpen(f.id, r.self.id, key) {
			return f
		}
	}
	for i := len(r.succs) - 1; i >= 0; i-- {
		if s := r.succs[i]; s.Name != r.self.Name && chord.InOpen(s.id, r.self.id, key) {
			return s
		}
	}
	return r.self
}

// setSuccessors installs a successor list in the order given (a successor
// followed by that successor's own list is nearest first): unnamed entries,
// self and repeats dropped, truncated. Nothing left is the singleton: self.
func (r *ring) setSuccessors(list []transport.ChordContact) {
	ms := make([]member, len(list))
	for i, c := range list {
		ms[i] = memberOf(c)
	}
	r.install(ms)
}

func (r *ring) install(list []member) {
	out := make([]member, 0, successors)
	for _, m := range list {
		if !m.known() || m.Name == r.self.Name || hasName(out, m.Name) {
			continue
		}
		if out = append(out, m); len(out) == successors {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, r.self)
	}
	r.succs = out
}

// setFinger installs one finger; the empty contact clears the slot.
func (r *ring) setFinger(j int, c transport.ChordContact) {
	r.fingers[j] = member{}
	if c.Name != "" {
		r.fingers[j] = memberOf(c)
	}
}

// found starts a new ring with this member alone on it.
func (r *ring) found() {
	r.pred = member{}
	r.install(nil)
}

// join splices this member in before succ, the member its own position
// routed to. succ's pre-adoption predecessor is exactly the member preceding
// the joiner, which fixes its primary key range (pred, self] immediately —
// the join-time range sync and the replica pushes both need it; a stale
// entry heals through the predecessor pulse like any other corpse. Every
// finger is seeded with succ: lookups route correctly (if slowly) from the
// first instant, and stabilization sharpens them.
func (r *ring) join(succ transport.ChordContact, reply transport.ChordJoinReply) {
	r.setSuccessors(append([]transport.ChordContact{succ}, reply.Successors...))
	if x := reply.Predecessor; x != nil && x.Name != r.self.Name {
		r.pred = memberOf(*x)
	}
	for j := range r.fingers {
		r.fingers[j] = r.succs[0]
	}
}

// leave takes this member off the ring; a rejoin reseeds the fingers.
func (r *ring) leave() { r.pred, r.succs = member{}, nil }

// nextRepair names the finger the next repair step refreshes and the key
// whose owner belongs in it, round-robin over the table.
func (r *ring) nextRepair() (j int, target uint64) {
	j = r.nextFinger
	r.nextFinger = (j + 1) % chord.FingerBits
	return j, chord.FingerTarget(r.self.id, j)
}

// evict removes a dead contact from the successor list, finger table and
// predecessor slot. A successor list emptied by it collapses to the
// singleton — a member always has somewhere to route.
func (r *ring) evict(name string) {
	if hasName(r.succs, name) {
		r.install(slices.DeleteFunc(slices.Clone(r.succs), func(m member) bool { return m.Name == name }))
	}
	for j := range r.fingers {
		if r.fingers[j].Name == name {
			r.fingers[j] = member{}
		}
	}
	if r.pred.Name == name {
		r.pred = member{}
	}
}

// adopt is the shared join/notify transition: take the sender as
// predecessor when it lies between the current predecessor and this member
// (or refreshes the same name), and answer with the pre-adoption
// predecessor, the successor list and this member's fresh contact.
func (r *ring) adopt(from transport.ChordContact) transport.ChordNotifyReply {
	prev := r.pred.contact()
	if from.Name != "" && from.Name != r.self.Name {
		if m := memberOf(from); !r.pred.known() || r.pred.Name == m.Name || chord.InOpen(m.id, r.pred.id, r.self.id) {
			r.pred = m
		}
	}
	return transport.ChordNotifyReply{Predecessor: prev, Successors: contacts(r.succs), Self: r.self.contact()}
}

// spliceLeave applies a neighbor's graceful-departure notice: adopt its
// predecessor if the leaver was ours, splice its successor list in place of
// the leaver in ours, and repoint fingers at its inheritor. The ring is
// whole immediately; nothing waits for stabilization. It reports whether
// the leaver was the predecessor — the key-range handover: this member
// owns the leaver's arc from this instant, and the caller adopts the
// records that travel with the notice.
func (r *ring) spliceLeave(req transport.ChordLeave) (inherits bool) {
	leaver := req.Peer.Name
	if leaver == "" || leaver == r.self.Name {
		return false
	}
	if inherits = r.pred.Name == leaver; inherits {
		r.pred = member{}
		if x := req.Predecessor; x != nil && x.Name != leaver && x.Name != r.self.Name {
			r.pred = memberOf(*x)
		}
	}
	if hasName(r.succs, leaver) {
		merged := slices.Clone(r.succs)
		for _, s := range req.Successors {
			merged = append(merged, memberOf(s))
		}
		merged = slices.DeleteFunc(merged, func(m member) bool { return m.Name == leaver })
		// Nearest-first by clockwise distance from this member, so the head
		// of the rebuilt list is the true next ring neighbor.
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].id-r.self.id < merged[j].id-r.self.id })
		r.install(merged)
	}
	var inheritor member
	if len(req.Successors) > 0 && req.Successors[0].Name != r.self.Name && req.Successors[0].Name != leaver {
		inheritor = memberOf(req.Successors[0])
	}
	for j := range r.fingers {
		if r.fingers[j].Name == leaver {
			r.fingers[j] = inheritor // the empty member clears
		}
	}
	return inherits
}
