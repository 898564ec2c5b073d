package node

import (
	"context"

	"p2pstream/internal/transport"
)

// Discovery abstracts how a live peer finds the overlay (paper Section
// 4.2, footnote 4): register and unregister as a supplying peer, and
// sample M random candidate suppliers. Three backends implement it —
// *directory.Client (the Napster-style centralized server),
// *directory.ShardedClient (the same registry consistent-hash sharded
// across several servers) and *chordnet.Peer (the wire-level Chord ring,
// no central component).
//
// Every call takes a context: cancellation aborts the underlying dials and
// RPC exchanges and surfaces ctx.Err(), and a context deadline bounds the
// whole operation (deterministically under a virtual clock via
// clock.ContextWithTimeout).
//
// A node owns its Discovery: Close tears it down with the node. A backend
// reaches a node through internal/wiring, whose Builder picks it, starts its
// endpoint and hands it over as Config.Discovery — the one wiring path under
// both the public Overlay and the scenario harness.
//
// Registrations are per media object: reg.Object, the object's catalog
// name, selects the registry, and a peer supplying several objects holds
// one registration per object, withdrawn independently.
type Discovery interface {
	// Register announces the peer as a supplier of reg.Object; reg.Addr is
	// the overlay address candidates will be probed and streamed from.
	Register(ctx context.Context, reg transport.Register) error
	// Unregister withdraws the peer from one object's registry.
	Unregister(ctx context.Context, id, object string) error
	// Candidates returns up to m distinct candidate suppliers of the given
	// object, excluding the named peer, in a slice the caller may modify. A
	// short (even empty) sample is not an error: the admission sweep simply
	// fails and the requester retries. Classes are not trusted: the node
	// drops a candidate whose class is outside [1, K].
	Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error)
	// Close releases backend resources (listener, timers); idempotent.
	Close() error
}

// BatchRegistrar is implemented by discovery backends that can announce
// many registrations in one exchange (the centralized directory). Callers
// with several objects to announce — a seed holding a whole library —
// should type-assert and batch; the fallback is one Register per object.
type BatchRegistrar interface {
	RegisterBatch(ctx context.Context, regs []transport.Register) error
}
