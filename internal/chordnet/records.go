package chordnet

import (
	"context"
	"sync"

	"p2pstream/internal/chord"
	"p2pstream/internal/transport"
)

// How a registration record reaches another member, all of it: route
// carries one record — published, withdrawn or forwarded — to the owner of
// its position, pushReplicas mirrors an owner's primary range onto its K
// successors; what happens on arrival is registry.apply. (A joiner also
// pulls its inherited range once, and a leaver's records ride its notice.)

// routers bounds the parallel walks of one routeAll: V can be large, and
// each record costs one walk plus one push.
const routers = 8

// publishRecords installs this member's V virtual-position records in its
// own store (position 0 — the ring position itself — always lives here)
// and routes each remotely-owned record to the member owning its
// position. Best effort: a record whose owner cannot be reached stays
// answerable from the local copy, and receiver-side forwarding plus the
// join-time range sync migrate copies that landed at stale owners.
func (p *Peer) publishRecords(ctx context.Context) {
	p.mu.Lock()
	if !p.joined {
		p.mu.Unlock()
		return
	}
	var remote []transport.ChordRecord
	for i := 0; i < p.cfg.VirtualNodes; i++ {
		r := transport.ChordRecord{Pos: chord.VirtualPosition(p.cfg.ID, i), Peer: p.ring.self.ChordContact}
		p.reg.upsert(r)
		if !p.ring.owns(r.Pos) {
			remote = append(remote, r)
		}
	}
	p.mu.Unlock()
	p.routeAll(ctx, remote, false, 0)
}

// routeAll routes records concurrently and returns when every one is
// delivered or given up on.
func (p *Peer) routeAll(ctx context.Context, recs []transport.ChordRecord, withdraw bool, hops int) {
	var wg sync.WaitGroup
	for w := 0; w < routers && w < len(recs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(recs); i += routers {
				p.route(ctx, recs[i], withdraw, hops)
			}
		}()
	}
	wg.Wait()
}

// route delivers one record to the member that owns its position: a
// publish upserts it there, a withdrawal deletes it (the record-level
// counterpart of a graceful leave). Best effort — an unreachable owner is
// skipped, and a position this member owns was settled by the caller in the
// local store. hops counts receiver-side forwarding: a receiver that does
// not own the position (the sender's walk answered a stale owner mid-flux)
// applies the record and routes it on with hops+1.
func (p *Peer) route(ctx context.Context, rec transport.ChordRecord, withdraw bool, hops int) {
	owner, _, _, err := p.findOwner(ctx, rec.Pos)
	if err != nil || owner.Name == p.cfg.ID {
		return
	}
	var reply transport.ChordReplicateReply
	_ = p.call(ctx, owner.Addr, transport.KindChordReplicate,
		transport.ChordReplicate{Withdraw: withdraw, Records: []transport.ChordRecord{rec}, Hops: hops},
		transport.KindChordReplicateOK, &reply)
}

// syncRange pulls the registration records of this peer's primary key
// range from its successor at join time: the successor owned the range
// until this instant, so the records settled there migrate to the new
// owner without waiting for their registrants to re-publish. With no
// known predecessor the range is over-approximated as (succ, self] —
// extra copies are harmless (they can never shadow a nearer record) and
// the owners' replace-pushes garbage-collect them.
func (p *Peer) syncRange(ctx context.Context, succ transport.ChordContact) {
	p.mu.Lock()
	lo, hi := p.ring.pred.id, p.ring.self.id
	if !p.ring.pred.known() {
		lo = memberOf(succ).id
	}
	p.mu.Unlock()
	if lo == hi {
		return
	}
	var reply transport.ChordReplicaPullReply
	err := p.call(ctx, succ.Addr, transport.KindChordReplicaPull,
		transport.ChordReplicaPull{All: true, Lo: lo, Hi: hi},
		transport.KindChordReplicaPullOK, &reply)
	if err != nil {
		return
	}
	p.mu.Lock()
	for _, r := range reply.Records {
		p.reg.upsert(r)
	}
	p.mu.Unlock()
}

// pushReplicas replicates this member's primary key range (pred, self] to
// its first K live successors, version-gated by the registry. Without a
// known predecessor the range is undefined — pushing would name the whole
// circle — so the push waits for the next notify to establish one.
func (p *Peer) pushReplicas() {
	p.mu.Lock()
	if p.cfg.Replication <= 0 || !p.joined || !p.ring.pred.known() {
		p.mu.Unlock()
		return
	}
	req, ver, targets := p.reg.primaries(p.ring.pred.id, p.ring.self.id, p.ring.succs, p.cfg.Replication)
	p.mu.Unlock()
	for _, s := range targets {
		var reply transport.ChordReplicateReply
		if err := p.call(context.Background(), s.Addr, transport.KindChordReplicate, req,
			transport.KindChordReplicateOK, &reply); err != nil {
			p.evict(s.Name)
			continue
		}
		p.mu.Lock()
		p.reg.markPushed(s.Name, ver)
		p.mu.Unlock()
	}
}
