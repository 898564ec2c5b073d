// Package wiring is the one place a live peer is wired to its discovery
// backend. The paper swaps peer discovery *under* an unchanged session
// layer (Section 4.2, footnote 4: a Napster-style directory or Chord), so
// "which backend does this peer get, and how is it started, chained and
// torn down" is one decision, made here once for both consumers: the
// public Overlay and the scenario harness.
package wiring

import (
	"context"
	"errors"
	"sync"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chordnet"
	"p2pstream/internal/directory"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/reshard"
)

// Builder wires the peers of one population. Fill the node template and
// exactly one backend, then Start peers; the zero value of everything else
// is ready to use. A Builder must not be copied after first use.
type Builder struct {
	// Node is the population's node template: catalog, admission and data
	// plane parameters, clock and observer — every field Peer does not
	// carry. Its Clock and Observer also reach each peer's discovery
	// endpoint, so one peer runs on one clock and reports to one observer.
	Node node.Config

	// DirectoryAddr selects the centralized directory: every peer gets the
	// plain directory.Client (one pooled connection, no lease timer).
	DirectoryAddr string
	// Sharded selects the consistent-hash sharded directory. It is a
	// template: Addrs, Names, Epoch, WatchEpochs and Refresh apply to every
	// peer; Network, Clock, Seed and Observer are filled per peer.
	Sharded *directory.ShardedConfig
	// Autoscale, set alongside Sharded, makes the registry elastic: every
	// client boots from the deployment's live epoch and shard set (which
	// override the template's Addrs, Names and Epoch) and watches for epoch
	// pushes. The deployment's lifecycle stays with the caller.
	Autoscale *reshard.Deployment
	// Chord selects the wire-level chord ring. It is a template: Bootstrap
	// (external ring members), ListenAddr, Stabilize, Replication and
	// VirtualNodes apply to every peer; ID, Class, Network, Clock, Seed and
	// Observer are filled per peer, and the endpoints of started seeds are
	// appended to Bootstrap for every later peer.
	Chord *chordnet.Config

	mu    sync.Mutex
	boots []string // chord endpoints of started seeds, in start order
	// founder is held, from bootstrap snapshot to publication, by a peer
	// created against an empty bootstrap list: two such peers running
	// concurrently would each found a singleton ring and partition the
	// overlay. Peers joining a founded ring never touch it.
	founder sync.Mutex
}

// Peer is the per-peer half of the wiring: what differs between two peers
// of one population.
type Peer struct {
	// ID is the peer's unique overlay name.
	ID string
	// Class is the peer's bandwidth class.
	Class bandwidth.Class
	// ListenAddr is the overlay listener ("" lets the node pick).
	ListenAddr string
	// DiscoveryListenAddr overrides the chord template's ListenAddr.
	DiscoveryListenAddr string
	// Seed drives the node's and the discovery endpoint's randomness.
	Seed int64
	// Held names the catalog objects a seed starts with (empty = all).
	Held []string
	// Priority biases ABR downgrades of sessions this peer requests.
	Priority int
	// Preregistered marks a seed whose registrations the caller announces
	// out of band; see node.Config.Preregistered.
	Preregistered bool
	// Network provides the peer's listeners and dials (nil = real TCP).
	Network netx.Network
}

// Start wires and starts one peer: it builds and starts the discovery
// endpoint of the configured backend, constructs the seed or requester node
// around it, and starts the node (ctx bounds a seed's registration). The
// returned discovery endpoint is owned by the node, which closes it on
// Close; on any failure Start has already closed whatever it started. A
// chord seed's endpoint becomes a bootstrap member for later peers only
// once its node is started, so a failed seed is never handed out as a
// bootstrap.
func (b *Builder) Start(ctx context.Context, p Peer, isSeed bool) (*node.Node, node.Discovery, error) {
	var boots []string
	if b.Chord != nil {
		var release func()
		boots, release = b.bootstrap()
		defer release()
	}
	disc, err := b.discovery(p, boots)
	if err != nil {
		return nil, nil, err
	}

	cfg := b.Node
	cfg.ID, cfg.Class, cfg.ListenAddr, cfg.Seed = p.ID, p.Class, p.ListenAddr, p.Seed
	cfg.Held, cfg.Priority, cfg.Preregistered = p.Held, p.Priority, p.Preregistered
	cfg.Network, cfg.Discovery = p.Network, disc
	var n *node.Node
	if isSeed {
		n, err = node.NewSeed(cfg)
	} else {
		n, err = node.NewRequester(cfg)
	}
	if err != nil {
		// The node never took ownership of the started endpoint (a chord
		// peer has a listener and a stabilization loop, a sharded client a
		// lease timer).
		disc.Close()
		return nil, nil, err
	}
	if err := n.Start(ctx); err != nil {
		n.Close()
		return nil, nil, err
	}
	if cp, ok := disc.(*chordnet.Peer); ok && isSeed {
		b.mu.Lock()
		b.boots = append(b.boots, cp.Addr())
		b.mu.Unlock()
	}
	return n, disc, nil
}

// discovery builds and starts one peer's endpoint of the selected backend.
func (b *Builder) discovery(p Peer, boots []string) (node.Discovery, error) {
	switch {
	case b.Chord != nil:
		cfg := *b.Chord
		cfg.ID, cfg.Class, cfg.Network, cfg.Seed = p.ID, p.Class, p.Network, p.Seed
		cfg.Clock, cfg.Observer = b.Node.Clock, b.Node.Observer
		cfg.Bootstrap = boots
		if p.DiscoveryListenAddr != "" {
			cfg.ListenAddr = p.DiscoveryListenAddr
		}
		cp, err := chordnet.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := cp.Start(); err != nil {
			cp.Close()
			return nil, err
		}
		return cp, nil
	case b.Sharded != nil:
		cfg := *b.Sharded
		cfg.Network, cfg.Seed = p.Network, p.Seed
		cfg.Clock, cfg.Observer = b.Node.Clock, b.Node.Observer
		if b.Autoscale != nil {
			// Boot from the deployment's live state: a peer created after a
			// flip must route by the current shard set. A flip racing the
			// snapshot is caught up on subscription (the server replies its
			// epoch to every new watcher).
			epoch, members := b.Autoscale.Snapshot()
			cfg.Addrs = make([]string, len(members))
			cfg.Names = make([]string, len(members))
			for i, m := range members {
				cfg.Addrs[i], cfg.Names[i] = m.Addr, m.Name
			}
			cfg.Epoch, cfg.WatchEpochs = epoch, true
		}
		return directory.NewShardedClient(cfg)
	case b.DirectoryAddr != "":
		return directory.NewClientOn(p.Network, b.DirectoryAddr), nil
	}
	return nil, errors.New("wiring: no discovery backend configured")
}

// bootstrap returns the bootstrap list of a new chord endpoint — the
// template's external members plus every started seed — and a release
// function the caller runs once its own endpoint is published or abandoned.
// Only a peer that finds the list empty serializes (on founder, re-reading
// the list once it holds the lock); joins of a founded ring run concurrently.
func (b *Builder) bootstrap() (boots []string, release func()) {
	snapshot := func() []string {
		b.mu.Lock()
		defer b.mu.Unlock()
		return append(append([]string(nil), b.Chord.Bootstrap...), b.boots...)
	}
	if boots = snapshot(); len(boots) > 0 {
		return boots, func() {}
	}
	b.founder.Lock()
	if boots = snapshot(); len(boots) > 0 {
		b.founder.Unlock()
		return boots, func() {}
	}
	return nil, b.founder.Unlock
}
