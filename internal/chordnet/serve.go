package chordnet

import (
	"context"
	"fmt"
	"net"

	"p2pstream/internal/transport"
)

// handleConn answers ring RPC exchanges on one connection until the caller
// hangs up or stalls past the per-exchange deadline. Non-members refuse —
// with an error frame over the still-synchronized stream, so a neighbor's
// pooled connection survives the refusal and they treat the departed peer
// as gone and heal around it. Malformed frames close the connection.
func (p *Peer) handleConn(conn net.Conn) {
	rd := transport.NewReader(conn)
	defer rd.Close()
	for {
		p.ep.Arm(conn)
		env, err := rd.Next()
		if err != nil || !p.serve(conn, &env) {
			return
		}
	}
}

// serve dispatches one request frame to its handler, writes the reply on
// conn and reports whether the connection stays open. Every reply is
// written where it is made, so none is boxed on its way out.
func (p *Peer) serve(conn net.Conn, env *transport.Envelope) bool {
	if !p.Joined() {
		p.ep.Reply(conn, transport.KindError, transport.Error{Message: fmt.Sprintf("chordnet %s: not a ring member", p.cfg.ID)})
		return true
	}
	switch env.Kind {
	case transport.KindChordFingerQuery:
		return answer(p.ep, conn, env, transport.KindChordFingerOK, func(req transport.ChordFingerQuery) (rep transport.ChordFingerReply, _ error) {
			rep.Done, rep.Next, rep.Backups = p.step(req.Key)
			return rep, nil
		})
	case transport.KindChordLookup:
		return answer(p.ep, conn, env, transport.KindChordLookupOK, p.serveLookup)
	case transport.KindChordReplicate:
		return answer(p.ep, conn, env, transport.KindChordReplicateOK, p.applyReplicate)
	case transport.KindChordReplicaPull:
		return answer(p.ep, conn, env, transport.KindChordReplicaPullOK, func(req transport.ChordReplicaPull) (rep transport.ChordReplicaPullReply, _ error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			if req.All {
				rep.Records = p.reg.inRange(req.Lo, req.Hi)
			} else {
				rep.Record, rep.Found = p.reg.best(req.Key, req.Dead)
			}
			return rep, nil
		})
	case transport.KindChordJoin:
		return answer(p.ep, conn, env, transport.KindChordJoinOK, func(req transport.ChordJoin) (transport.ChordJoinReply, error) {
			rep := p.adopt(req.Peer)
			return transport.ChordJoinReply{Predecessor: rep.Predecessor, Successors: rep.Successors}, nil
		})
	case transport.KindChordNotify:
		return answer(p.ep, conn, env, transport.KindChordNotifyOK, func(req transport.ChordNotify) (transport.ChordNotifyReply, error) {
			return p.adopt(req.Peer), nil
		})
	case transport.KindChordLeave:
		return answer(p.ep, conn, env, transport.KindChordLeaveOK, p.spliceLeave)
	}
	p.ep.Reply(conn, transport.KindError, transport.Error{Message: fmt.Sprintf("chordnet %s: unexpected %s", p.cfg.ID, env.Kind)})
	return false
}

// answer decodes one request, runs its handler and replies through ep. A
// malformed frame gets no reply and closes the connection; a handler error
// travels back as an error frame on the still-synchronized stream.
func answer[Req, Rep any](ep *transport.Endpoint, conn net.Conn, env *transport.Envelope, ok transport.Kind, handle func(Req) (Rep, error)) bool {
	var req Req
	if env.Decode(&req) != nil {
		return false
	}
	if rep, err := handle(req); err != nil {
		ep.Reply(conn, transport.KindError, transport.Error{Message: err.Error()})
	} else {
		ep.Reply(conn, ok, rep)
	}
	return true
}

// serveLookup routes a full lookup on behalf of a caller that is not a
// member: the topological owner for a joiner, the answering registration
// record for a requester.
func (p *Peer) serveLookup(req transport.ChordLookup) (rep transport.ChordLookupReply, err error) {
	if req.Topo {
		rep.Owner, _, rep.Hops, err = p.findOwner(context.Background(), req.Key)
		return rep, err
	}
	var viaReplica bool
	rep.Owner, rep.Hops, viaReplica, err = p.resolve(context.Background(), req.Key)
	if err == nil && viaReplica {
		// The delegating caller is not a member; this routing member's
		// observer carries the event.
		p.emitReplicaAnswered(rep.Hops)
	}
	return rep, err
}

// applyReplicate is the chord-replicate handler: the registry applies the
// push and names the records that belong to another member; those are
// routed on while the hop budget lasts — on a tracked goroutine: the walk
// to the true owner must not stall the handler that received the push.
func (p *Peer) applyReplicate(req transport.ChordReplicate) (transport.ChordReplicateReply, error) {
	p.mu.Lock()
	forward := p.reg.apply(req, p.ring.mayOwn)
	p.mu.Unlock()
	if len(forward) > 0 && req.Hops < maxForwardHops {
		p.spawn(func() { p.routeAll(context.Background(), forward, req.Withdraw, req.Hops+1) })
	}
	return transport.ChordReplicateReply{}, nil
}

func (p *Peer) adopt(from transport.ChordContact) transport.ChordNotifyReply {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.adopt(from)
}

// spliceLeave applies a neighbor's graceful-departure notice. The leaver's
// records travel with it: the successor (the peer whose predecessor the
// leaver was) inherits the arc, so it adopts them; records naming the
// leaver itself are dropped everywhere — it just withdrew.
func (p *Peer) spliceLeave(req transport.ChordLeave) (transport.ChordLeaveReply, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ring.spliceLeave(req) {
		for _, r := range req.Records {
			p.reg.upsert(r)
		}
	}
	p.reg.dropPeer(req.Peer.Name)
	return transport.ChordLeaveReply{}, nil
}
