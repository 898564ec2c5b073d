package chordnet

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// Candidates samples up to m distinct peers supplying the given object by
// routing lookups of random keys — owners are hit proportionally to arc
// length. Owners whose contact does not list the object are skipped (a
// cached contact can lag its member's set by a stabilization round; the
// probe's own refusal sorts that out). Each round issues the
// missing draws in parallel; with fewer ring members than m the sample
// simply comes back short, and the admission sweep retries later against
// a grown ring.
func (p *Peer) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	if m <= 0 {
		return nil, nil
	}
	// Contacts merge across rounds by name, newest epoch wins: rounds can
	// surface different copies of the same member (one from before a
	// rejoin, one after), and a probe must never dial an address the
	// member already abandoned. First-seen order is kept so the output is
	// deterministic under a seeded rng.
	index := make(map[string]int)
	var contacts []transport.ChordContact
	eligible := func(c transport.ChordContact) bool {
		return c.NodeAddr != "" && slices.Contains(c.Objects, object)
	}
	for round := 0; round < sampleRounds; round++ {
		need := m
		for _, c := range contacts {
			if eligible(c) {
				need--
			}
		}
		if need <= 0 {
			break
		}
		p.roundCount.Add(1)
		keys := make([]uint64, need)
		p.mu.Lock()
		for i := range keys {
			keys[i] = p.rng.Uint64()
		}
		p.mu.Unlock()
		owners := make([]*transport.ChordContact, need)
		var wg sync.WaitGroup
		for i, key := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if owner, err := p.LookupKey(ctx, key); err == nil {
					owners[i] = &owner
				}
			}()
		}
		wg.Wait()
		for _, c := range owners {
			if c == nil || c.Name == "" || c.Name == exclude || c.Name == p.cfg.ID {
				continue
			}
			if i, dup := index[c.Name]; dup {
				if c.Epoch > contacts[i].Epoch {
					contacts[i] = *c
				}
				continue
			}
			index[c.Name] = len(contacts)
			contacts = append(contacts, *c)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	var out []transport.Candidate
	for _, c := range contacts {
		if eligible(c) && len(out) < m {
			out = append(out, transport.Candidate{ID: c.Name, Addr: c.NodeAddr, Class: c.Class})
		}
	}
	return out, nil
}

// LookupKey routes a full lookup of one key and returns the owning contact
// (exported for tests and diagnostics; ctx cancels the walk mid-hop):
// members resolve the answering record themselves, non-members delegate to
// a bootstrap member (which resolves on their behalf). Both paths feed the
// discovery-cost counters and emit a LookupDone event on the observer; a
// resolution served by a replica after the owner proved unreachable
// additionally emits ReplicaAnswered.
func (p *Peer) LookupKey(ctx context.Context, key uint64) (owner transport.ChordContact, err error) {
	start := p.clk.Now()
	var hops int
	var viaReplica bool
	if p.Joined() {
		owner, hops, viaReplica, err = p.resolve(ctx, key)
	} else {
		owner, hops, err = p.lookupVia(ctx, key, false)
	}
	err = transport.CtxErr(ctx, err)
	if err == nil {
		p.lookupCount.Add(1)
		p.hopCount.Add(int64(hops))
		if viaReplica {
			p.emitReplicaAnswered(hops)
		}
	}
	observe.Emit(p.cfg.Observer, observe.Event{
		Component: p.comp,
		Type:      observe.LookupDone,
		Hops:      hops,
		Latency:   p.clk.Since(start),
		Err:       err,
	})
	return owner, err
}

func (p *Peer) emitReplicaAnswered(hops int) {
	observe.Emit(p.cfg.Observer, observe.Event{Component: p.comp, Type: observe.ReplicaAnswered, Hops: hops})
}

// lookupVia delegates a key lookup to the first answering bootstrap,
// returning the answer and the hops the routing member expended. topo
// asks for the key's topological owner (the join path); otherwise the
// routing member resolves the answering registration record.
func (p *Peer) lookupVia(ctx context.Context, key uint64, topo bool) (transport.ChordContact, int, error) {
	boots := p.bootstraps()
	if len(boots) == 0 {
		return transport.ChordContact{}, 0, fmt.Errorf("chordnet %s: no bootstrap members", p.cfg.ID)
	}
	var lastErr error
	for _, addr := range boots {
		var reply transport.ChordLookupReply
		err := p.call(ctx, addr, transport.KindChordLookup, transport.ChordLookup{Key: key, Topo: topo},
			transport.KindChordLookupOK, &reply)
		if err == nil {
			return reply.Owner, reply.Hops, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return transport.ChordContact{}, 0, cerr
		}
		lastErr = err
	}
	return transport.ChordContact{}, 0, fmt.Errorf("chordnet %s: no bootstrap answered: %w", p.cfg.ID, lastErr)
}

// resolve answers a key lookup from registration records: walk to the
// key's topological owner, then pull the best record for the key from it.
// A failed pull means the owner is a corpse the walk still routes to:
// evict it, dead-list it, and fail over to the owner's backups (its
// successors, carried by the walk's final hop) — the replica holders of
// its range — which answer excluding the dead names. The returned flag
// reports a replica-served answer (the owner itself did not produce it);
// the hop count sums the walks.
func (p *Peer) resolve(ctx context.Context, key uint64) (transport.ChordContact, int, bool, error) {
	var dead []string
	totalHops := 0
	viaReplica := false
	var lastErr error
	for attempt := 0; attempt < resolveAttempts; attempt++ {
		owner, backups, hops, err := p.findOwner(ctx, key)
		totalHops += hops
		if err != nil {
			return transport.ChordContact{}, totalHops, false, err
		}
		for _, c := range append([]transport.ChordContact{owner}, backups...) {
			if c.Name == "" || slices.Contains(dead, c.Name) {
				viaReplica = true
				continue
			}
			// Re-pull the same contact when the record it answered names a
			// member this resolution then observes dead: the grown dead list
			// steers the next pull to the next-best record. Each iteration
			// either returns or dead-lists a name the pull had not filtered,
			// so the loop is bounded by the store; the cap guards against a
			// remote that ignores the dead list.
			for pulls := 0; pulls < 8; pulls++ {
				var rec transport.ChordRecord
				var found bool
				if c.Name == p.cfg.ID {
					p.mu.Lock()
					rec, found = p.reg.best(key, dead)
					p.mu.Unlock()
				} else {
					var reply transport.ChordReplicaPullReply
					err := p.call(ctx, c.Addr, transport.KindChordReplicaPull,
						transport.ChordReplicaPull{Key: key, Dead: dead},
						transport.KindChordReplicaPullOK, &reply)
					if err != nil {
						if cerr := ctx.Err(); cerr != nil {
							return transport.ChordContact{}, totalHops, false, cerr
						}
						p.evict(c.Name)
						dead = append(dead, c.Name)
						lastErr = err
						viaReplica = true
						break
					}
					rec, found = reply.Record, reply.Found
				}
				if !found {
					// Nothing registered in range (a member mid-join answering
					// before its first publish): the answering member itself
					// is the legacy answer.
					return c, totalHops, viaReplica, nil
				}
				// A third-party answer is verified reachable before it is
				// returned: a replica faithfully answers records of members
				// whose death it has not observed yet, and this resolver may
				// never have tried the corpse itself (its walk can land past
				// the crash when another member already evicted it). The
				// answering member vouches for itself — the pull that just
				// succeeded is the proof — and self needs no proof.
				if rec.Peer.Name != c.Name && rec.Peer.Name != p.cfg.ID && rec.Peer.Addr != "" &&
					!p.contactLive(ctx, rec.Peer) {
					if cerr := ctx.Err(); cerr != nil {
						return transport.ChordContact{}, totalHops, false, cerr
					}
					p.evict(rec.Peer.Name)
					dead = append(dead, rec.Peer.Name)
					lastErr = fmt.Errorf("chordnet %s: record for key %d names unreachable %s", p.cfg.ID, key, rec.Peer.Name)
					viaReplica = true
					continue
				}
				return rec.Peer, totalHops, viaReplica, nil
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("chordnet %s: no live replica answered key %d", p.cfg.ID, key)
	}
	return transport.ChordContact{}, totalHops, false, lastErr
}

// contactLive probes a contact with a one-hop finger query — any answered
// RPC is proof of life, whatever the key. Resolve uses it to vet answers
// that name a member other than the one that served them.
func (p *Peer) contactLive(ctx context.Context, c transport.ChordContact) bool {
	var reply transport.ChordFingerReply
	return p.call(ctx, c.Addr, transport.KindChordFingerQuery, transport.ChordFingerQuery{},
		transport.KindChordFingerOK, &reply) == nil
}

// findOwner iteratively routes a key from this member to its topological
// owner: one finger-query per hop, restarting from scratch when a hop is
// dead (after evicting it, so the retry routes around the corpse). The
// backup list names the owner's successors (its replica holders) as the
// final hop knew them.
func (p *Peer) findOwner(ctx context.Context, key uint64) (owner transport.ChordContact, backups []transport.ChordContact, hops int, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if owner, backups, hops, err = p.walk(ctx, key); err == nil {
			return owner, backups, hops, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return transport.ChordContact{}, nil, 0, cerr
		}
	}
	return transport.ChordContact{}, nil, 0, err
}

func (p *Peer) walk(ctx context.Context, key uint64) (transport.ChordContact, []transport.ChordContact, int, error) {
	done, next, backups := p.step(key)
	hops := 0
	for !done {
		hops++
		if hops > maxHops {
			return transport.ChordContact{}, nil, hops, fmt.Errorf("chordnet %s: routing did not converge", p.cfg.ID)
		}
		if next.Name == p.cfg.ID {
			done, next, backups = p.step(key)
			continue
		}
		var reply transport.ChordFingerReply
		err := p.call(ctx, next.Addr, transport.KindChordFingerQuery, transport.ChordFingerQuery{Key: key},
			transport.KindChordFingerOK, &reply)
		if err != nil {
			p.evict(next.Name)
			return transport.ChordContact{}, nil, hops, err
		}
		done, next, backups = reply.Done, reply.Next, reply.Backups
	}
	return next, backups, hops, nil
}

// step is one local routing step under the lock.
func (p *Peer) step(key uint64) (bool, transport.ChordContact, []transport.ChordContact) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.step(key)
}

// evict forgets a dead contact — ring slots and registration records alike
// — so healing starts the moment an RPC fails, not at the next
// stabilization tick.
func (p *Peer) evict(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.evict(name)
	p.reg.dropPeer(name)
}
