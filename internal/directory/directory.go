// Package directory implements the Napster-style centralized lookup service
// of the live overlay (paper Section 4.2, footnote 4): supplying peers
// register their address and bandwidth class; requesting peers obtain M
// randomly selected candidates. Connections are persistent: a client keeps
// one connection per server and runs every exchange over it (reconnecting
// transparently), and the server answers exchanges until the client hangs
// up or stalls past the per-exchange deadline.
package directory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/lookup"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// Server is a directory server. Create with NewServer, then Start it on an
// address (or Serve on a listener); Close stops it.
type Server struct {
	// Observer, when non-nil, receives the server's events — reply writes
	// that failed mid-exchange (a client hangup the request/response flow
	// would otherwise mistake for success), which are counted regardless
	// in WriteFailures. Set before Serve.
	Observer observe.Observer

	// ep owns the listener, the in-flight connections and the reply path.
	ep    *transport.Endpoint
	stats struct{ registers, refreshes, unregisters, lookups atomic.Int64 }

	mu sync.Mutex
	// dirs holds one supplier registry per media object, by object name;
	// a registry exists while it holds a supplier.
	dirs map[string]*lookup.Directory[string]
	// addrs maps peer ID -> dial address; addrRefs counts how many object
	// registries hold the peer, so withdrawing one object keeps the address
	// live for the others.
	addrs    map[string]string
	addrRefs map[string]int
	rng      *rand.Rand
	sampled  []lookup.Entry[string] // lookup's sample buffer, reused under mu

	// epochMu guards the resharding epoch and its watcher set separately
	// from mu: a SetEpoch push fans writes out to watcher connections and
	// must not hold the registry lock while it does.
	epochMu  sync.Mutex
	epoch    transport.DirEpoch
	watchers map[*epochWatcher]struct{}
}

// epochWatcher is one subscribed connection. Its mutex serializes the
// subscription's immediate reply with concurrent SetEpoch pushes, so two
// epoch frames never interleave bytes on the wire.
type epochWatcher struct {
	conn net.Conn
	mu   sync.Mutex
}

// NewServer returns an empty directory server. The seed fixes candidate
// sampling for reproducible tests.
func NewServer(seed int64) *Server {
	s := &Server{
		dirs:     make(map[string]*lookup.Directory[string]),
		addrs:    make(map[string]string),
		addrRefs: make(map[string]int),
		rng:      rand.New(rand.NewSource(seed)),
	}
	// Observer is a field set after construction: read it per event.
	s.ep = transport.NewEndpoint("directory", observe.Func(func(ev observe.Event) {
		observe.Emit(s.Observer, ev)
	}))
	return s
}

// Len returns the number of registrations across every object registry (a
// peer supplying two objects counts twice — Len weighs registry size, not
// peer population).
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, dir := range s.dirs {
		n += dir.Len()
	}
	return n
}

// ObjectLen returns the number of suppliers registered for one object.
func (s *Server) ObjectLen(object string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dir, ok := s.dirs[object]; ok {
		return dir.Len()
	}
	return 0
}

// Has reports whether the given peer is registered in one object's
// registry — the zero-loss audit hook of the resharding scenarios.
func (s *Server) Has(id, object string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[object]
	return ok && dir.Contains(id)
}

// Epoch returns the resharding epoch the server currently announces
// (zero value until SetEpoch).
func (s *Server) Epoch() transport.DirEpoch {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	ep := s.epoch
	ep.Shards = append([]transport.DirShard(nil), ep.Shards...)
	return ep
}

// SetEpoch installs the deployment's resharding epoch and pushes it to
// every watching client. Epochs are monotonic: a stale announcement
// (epoch at or below the current one) is dropped, so racing controllers
// cannot roll a deployment backwards.
func (s *Server) SetEpoch(ep transport.DirEpoch) {
	ep.Shards = append([]transport.DirShard(nil), ep.Shards...)
	s.epochMu.Lock()
	if ep.Epoch <= s.epoch.Epoch {
		s.epochMu.Unlock()
		return
	}
	s.epoch = ep
	ws := make([]*epochWatcher, 0, len(s.watchers))
	for w := range s.watchers {
		ws = append(ws, w)
	}
	s.epochMu.Unlock()
	for _, w := range ws {
		// A failed push means the client hung up; its read loop notices
		// and drops the watcher, so best effort is enough here.
		w.mu.Lock()
		s.ep.Reply(w.conn, transport.KindDirEpoch, ep)
		w.mu.Unlock()
	}
}

// addWatcher subscribes one connection to epoch pushes and returns the
// watcher handle. Registration and the current-epoch snapshot happen
// under one lock hold, so a concurrent SetEpoch either lands in the
// snapshot or reaches the watcher as a push — never neither.
func (s *Server) addWatcher(conn net.Conn) (*epochWatcher, transport.DirEpoch) {
	w := &epochWatcher{conn: conn}
	s.epochMu.Lock()
	if s.watchers == nil {
		s.watchers = make(map[*epochWatcher]struct{})
	}
	s.watchers[w] = struct{}{}
	ep := s.epoch
	s.epochMu.Unlock()
	return w, ep
}

func (s *Server) removeWatcher(w *epochWatcher) {
	s.epochMu.Lock()
	delete(s.watchers, w)
	s.epochMu.Unlock()
}

// Start listens on addr over nw (nil means real TCP) and serves in the
// background; it returns the bound address.
func (s *Server) Start(nw netx.Network, addr string) (string, error) {
	if err := s.ep.Start(nw, addr, s.handle); err != nil {
		return "", err
	}
	return s.ep.Addr(), nil
}

// Serve accepts connections from l, which it owns from here on, until the
// listener is closed. It always returns a non-nil error (net.ErrClosed
// after Close); a closed or already serving server closes l and says so.
func (s *Server) Serve(l net.Listener) error { return s.ep.Serve(l, s.handle) }

// Close stops the server: the listener closes (so Serve returns), in-flight
// connections are torn down so a stalled client cannot wedge it, and every
// handler has returned when it does.
func (s *Server) Close() error { return s.ep.Close() }

// WriteFailures counts reply writes that failed mid-exchange (the client
// hung up while the response was in flight). See Observer.
func (s *Server) WriteFailures() int64 { return s.ep.WriteFailures() }

// Stats describes one directory server's request counters — with a sharded
// registry, per-shard stats show how the consistent-hash ring spread keys
// and load across the shard set.
type Stats struct {
	// Registers counts first-time registrations (including refresh-flagged
	// arrivals repopulating a shard that lost — or, across a resharding
	// epoch, never held — the entry); Refreshes counts lease-style
	// re-registrations of an already-known peer. An autoscaler must not
	// read Registers as demand: epoch migrations land here too, a feedback
	// loop that would flip forever (see internal/reshard, which keys load
	// on Lookups).
	Registers, Refreshes int64
	// Unregisters counts withdrawals (of registered peers only).
	Unregisters int64
	// Lookups counts candidate queries served.
	Lookups int64
}

// Stats returns the server's request counters.
func (s *Server) Stats() Stats {
	return Stats{
		Registers:   s.stats.registers.Load(),
		Refreshes:   s.stats.refreshes.Load(),
		Unregisters: s.stats.unregisters.Load(),
		Lookups:     s.stats.lookups.Load(),
	}
}

// handle serves request/response exchanges on one connection until the
// client hangs up. Each exchange runs under a fresh deadline: a client
// that stalls mid-exchange (or idles past the timeout between exchanges)
// is cut off instead of pinning this goroutine — and with it Close's
// shutdown — forever; its cache redials transparently on the next call.
// Malformed frames close the connection; application-level refusals
// (duplicate registration) answer an error frame and keep serving.
func (s *Server) handle(conn net.Conn) {
	rd := transport.NewReader(conn)
	defer rd.Close()
	var watch *epochWatcher
	defer func() {
		if watch != nil {
			s.removeWatcher(watch)
		}
	}()
	for {
		if watch == nil {
			// Watch connections idle arbitrarily long between pushes by
			// design; every other connection runs request/response
			// exchanges under the per-exchange deadline.
			s.ep.Arm(conn)
		}
		env, err := rd.Next()
		if err != nil {
			return // hangup, idle timeout, or garbage framing
		}
		switch env.Kind {
		case transport.KindRegister:
			var req transport.Register
			if err := env.Decode(&req); err != nil {
				s.replyError(conn, err)
				return
			}
			if err := s.register(req); err != nil {
				s.replyError(conn, err)
				continue
			}
			s.ep.Reply(conn, transport.KindRegisterOK, struct{}{})
		case transport.KindRegisterBatch:
			var req transport.RegisterBatch
			if err := env.Decode(&req); err != nil {
				s.replyError(conn, err)
				return
			}
			if err := s.registerBatch(req); err != nil {
				s.replyError(conn, err)
				continue
			}
			s.ep.Reply(conn, transport.KindRegisterBatchOK, struct{}{})
		case transport.KindUnregister:
			var req transport.Unregister
			if err := env.Decode(&req); err != nil {
				s.replyError(conn, err)
				return
			}
			s.unregister(req.ID, req.Object)
			s.ep.Reply(conn, transport.KindUnregisterOK, struct{}{})
		case transport.KindLookup:
			var req transport.Lookup
			if err := env.Decode(&req); err != nil {
				s.replyError(conn, err)
				return
			}
			s.ep.Reply(conn, transport.KindCandidates, s.lookup(req))
		case transport.KindDirEpochWatch:
			var req transport.DirEpochWatch
			if err := env.Decode(&req); err != nil {
				s.replyError(conn, err)
				return
			}
			if watch == nil {
				var ep transport.DirEpoch
				watch, ep = s.addWatcher(conn)
				conn.SetDeadline(time.Time{}) // pushes idle past any exchange deadline
				watch.mu.Lock()
				s.ep.Reply(conn, transport.KindDirEpoch, ep)
				watch.mu.Unlock()
				continue
			}
			// Re-subscription on an already-watching connection: just
			// re-answer the current epoch. Snapshot before taking the
			// watcher lock — SetEpoch holds them in the other order.
			ep := s.Epoch()
			watch.mu.Lock()
			s.ep.Reply(conn, transport.KindDirEpoch, ep)
			watch.mu.Unlock()
		default:
			s.replyError(conn, fmt.Errorf("directory: unexpected %s", env.Kind))
			return
		}
	}
}

func (s *Server) replyError(conn net.Conn, err error) {
	s.ep.Reply(conn, transport.KindError, transport.Error{Message: err.Error()})
}

func (s *Server) register(req transport.Register) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(req)
}

// registerBatch registers every entry of one batch frame under a single
// lock hold — one exchange announces a seed's whole object set (or a
// whole seed population) instead of one dial per entry. The first failing
// entry aborts the batch; entries before it stay registered, exactly as
// if they had been sent individually.
func (s *Server) registerBatch(req transport.RegisterBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, reg := range req.Regs {
		if err := s.registerLocked(reg); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) registerLocked(req transport.Register) error {
	if req.ID == "" || req.Addr == "" {
		return errors.New("directory: register needs id and addr")
	}
	dir, ok := s.dirs[req.Object]
	if !ok {
		dir = lookup.NewDirectory[string]()
		s.dirs[req.Object] = dir
	}
	if req.Refresh && dir.Contains(req.ID) {
		// Lease refresh of a known peer: re-registering is how a supplier
		// survives a registry shard that crashed and came back empty, so
		// the newest address and class simply replace the entry — in
		// place: moving it would make every later sample depend on when,
		// and in which order, the refreshes happened to arrive.
		if err := dir.Refresh(lookup.Entry[string]{ID: req.ID, Class: req.Class}); err != nil {
			return err
		}
		s.addrs[req.ID] = req.Addr
		s.stats.refreshes.Add(1)
		return nil
	}
	if err := dir.Register(lookup.Entry[string]{ID: req.ID, Class: req.Class}); err != nil {
		return err
	}
	s.addrs[req.ID] = req.Addr
	s.addrRefs[req.ID]++
	s.stats.registers.Add(1)
	return nil
}

func (s *Server) unregister(id, object string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[object]
	if !ok || !dir.Unregister(id) {
		return
	}
	if s.addrRefs[id]--; s.addrRefs[id] <= 0 {
		delete(s.addrRefs, id)
		delete(s.addrs, id)
	}
	if dir.Len() == 0 {
		delete(s.dirs, object)
	}
	s.stats.unregisters.Add(1)
}

// maxLookupM bounds the candidates one lookup returns, whatever M the frame
// asks for: the sampler tells picked entries apart by scanning its picks,
// which is quadratic in M, and M arrives from the network. The protocol's M
// is a handful.
const maxLookupM = 1024

func (s *Server) lookup(req transport.Lookup) transport.Candidates {
	s.stats.lookups.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[req.Object]
	if !ok {
		return transport.Candidates{}
	}
	want := max(0, min(req.M, maxLookupM))
	m := want
	if req.Exclude != "" {
		m++ // oversample so the exclusion still leaves M candidates
	}
	s.sampled = dir.SampleInto(s.sampled, m, s.rng)
	out := transport.Candidates{Len: dir.Len()}
	if n := min(want, len(s.sampled)); n > 0 {
		out.Peers = make([]transport.Candidate, 0, n)
	}
	for _, e := range s.sampled {
		if e.ID == req.Exclude {
			continue
		}
		if len(out.Peers) == want {
			break
		}
		out.Peers = append(out.Peers, transport.Candidate{ID: e.ID, Addr: s.addrs[e.ID], Class: e.Class})
	}
	return out
}

// Client calls a directory server over one persistent connection,
// reconnecting transparently when the server idles it out. The zero value
// is unusable; use NewClient or NewClientOn.
type Client struct {
	net   netx.Network
	addr  string
	cache *transport.ConnCache
}

// NewClient returns a client for the directory at addr, dialing over TCP.
func NewClient(addr string) *Client { return NewClientOn(nil, addr) }

// NewClientOn returns a client that dials the directory at addr over the
// given network (nil means real TCP).
func NewClientOn(network netx.Network, addr string) *Client {
	nw := netx.Or(network)
	return &Client{net: nw, addr: addr, cache: transport.NewConnCache(nw)}
}

// Register announces a supplying peer in the registry of reg.Object. ctx
// bounds the exchange.
func (c *Client) Register(ctx context.Context, reg transport.Register) error {
	return c.call(ctx, transport.KindRegister, reg, transport.KindRegisterOK, nil)
}

// RegisterBatch announces many registrations in one exchange — a seed's
// whole object set, or a whole seed population, without one dial per
// entry.
func (c *Client) RegisterBatch(ctx context.Context, regs []transport.Register) error {
	if len(regs) == 0 {
		return nil
	}
	return c.call(ctx, transport.KindRegisterBatch, transport.RegisterBatch{Regs: regs}, transport.KindRegisterBatchOK, nil)
}

// Unregister withdraws a supplying peer from one object's registry. ctx
// bounds the exchange.
func (c *Client) Unregister(ctx context.Context, id, object string) error {
	return c.call(ctx, transport.KindUnregister, transport.Unregister{ID: id, Object: object}, transport.KindUnregisterOK, nil)
}

// Candidates fetches up to m random candidates for one object, excluding
// the given peer ID — the node.Discovery spelling of Lookup.
func (c *Client) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	reply, err := c.Lookup(ctx, object, m, exclude)
	if err != nil {
		return nil, err
	}
	return reply.Peers, nil
}

// Close drops the client's persistent connection. Further calls fail.
func (c *Client) Close() error { return c.cache.Close() }

// Lookup fetches up to m random candidates for one object, excluding the
// given peer ID. The reply carries the answering registry's size for that
// object (Len), which the sharded client's merge uses as its weight.
func (c *Client) Lookup(ctx context.Context, object string, m int, exclude string) (transport.Candidates, error) {
	var resp transport.Candidates
	err := c.call(ctx, transport.KindLookup, transport.Lookup{M: m, Exclude: exclude, Object: object}, transport.KindCandidates, &resp)
	if err != nil {
		return transport.Candidates{}, err
	}
	return resp, nil
}

func (c *Client) call(ctx context.Context, kind transport.Kind, req any, wantKind transport.Kind, resp any) error {
	if err := c.cache.Call(ctx, c.addr, kind, req, wantKind, resp); err != nil {
		return fmt.Errorf("directory: calling %s: %w", c.addr, err)
	}
	return nil
}
