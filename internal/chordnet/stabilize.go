package chordnet

import (
	"context"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// armStabilize schedules the next stabilization round. The round itself
// runs on a fresh goroutine: clock callbacks must never block, and a round
// blocks on RPC round trips.
func (p *Peer) armStabilize() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !p.joined {
		return
	}
	p.stabTimer = p.clk.AfterFunc(p.cfg.Stabilize, func() {
		p.spawn(func() {
			p.stabilizeOnce()
			p.armStabilize()
		})
	})
}

// stabilizeOnce runs one maintenance round: verify (or advance past) the
// successor, exchange notifies, check the predecessor's pulse, and repair
// a few fingers.
func (p *Peer) stabilizeOnce() {
	p.mu.Lock()
	if p.closed || !p.joined {
		p.mu.Unlock()
		return
	}
	self := p.ring.self
	succs := append([]member(nil), p.ring.succs...)
	pred := p.ring.pred
	p.mu.Unlock()

	// With every listed successor dead (or none but self — a singleton or
	// collapsed ring), the only way to grow back is through a predecessor
	// that has adopted us; with none, collapse to a singleton and wait to
	// be found.
	next := []transport.ChordContact{pred.ChordContact}
	for _, s := range succs {
		if s.Name == self.Name {
			break
		}
		var reply transport.ChordNotifyReply
		err := p.call(context.Background(), s.Addr, transport.KindChordNotify, transport.ChordNotify{Peer: self.ChordContact},
			transport.KindChordNotifyOK, &reply)
		if err != nil {
			p.evict(s.Name)
			continue
		}
		next = make([]transport.ChordContact, 0, 2+len(reply.Successors))
		if x := reply.Predecessor; x != nil && x.Name != self.Name && x.Name != s.Name &&
			chord.InOpen(memberOf(*x).id, self.id, s.id) {
			// A closer successor surfaced between us; adopt it first (the
			// next round notifies it and verifies its pulse).
			next = append(next, *x)
		}
		if reply.Self != nil && reply.Self.Name == s.Name {
			// The successor answered with its fresh contact: replace our
			// stored entry, so a post-join change (a grown object set)
			// reaches the routing answers we serve for it.
			s.ChordContact = *reply.Self
		}
		next = append(append(next, s.ChordContact), reply.Successors...)
		break
	}
	p.mu.Lock()
	p.ring.setSuccessors(next)
	p.mu.Unlock()

	if pred.known() && !p.contactLive(context.Background(), pred.ChordContact) {
		// The predecessor is dead: evict it everywhere (successor list,
		// fingers, predecessor slot, and its stored records — this member
		// inherits its arc, and the corpse's records must not be answered
		// from here).
		p.evict(pred.Name)
	}

	// Replicate this member's primary range to its K successors (no-op
	// when nothing changed since the last push).
	p.pushReplicas()

	for k := 0; k < fingersPerRound; k++ {
		p.mu.Lock()
		if p.closed || !p.joined {
			p.mu.Unlock()
			return
		}
		j, target := p.ring.nextRepair()
		p.mu.Unlock()
		owner, _, _, _ := p.findOwner(context.Background(), target) // an unreachable owner clears the slot
		p.mu.Lock()
		p.ring.setFinger(j, owner)
		p.mu.Unlock()
	}
}
