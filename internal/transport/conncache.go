package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"p2pstream/internal/netx"
)

// ErrCacheClosed is returned by ConnCache.Call after Close.
var ErrCacheClosed = errors.New("transport: connection cache closed")

// ConnCache maintains a pool of persistent connections per destination and
// runs request/response exchanges over them. Call used to mean one dial per
// exchange; under megacrowd contention a requester burned ~40 dials on
// admission alone. A cached connection amortizes the dial across every
// exchange with that destination, reconnecting transparently when the
// server idled it out or the link reset.
//
// The pool holds one connection per concurrent exchange rather than one per
// destination: a length-prefixed stream cannot interleave two
// request/response pairs, and funneling concurrent callers through a single
// connection would head-of-line block a short lookup behind a long-running
// exchange (a lease-refresh sweep, say). A sequential caller still uses
// exactly one connection.
//
// An application-level refusal (the peer answered with a KindError frame,
// surfaced as *RemoteError) leaves the connection pooled — the stream is
// still synchronized. Any other failure drops it; a failure on a reused
// connection retries exactly once on a fresh dial, so a server-side idle
// disconnect between exchanges is invisible to callers.
type ConnCache struct {
	nw netx.Network

	mu     sync.Mutex
	idle   map[string][]net.Conn // per destination, most recently used last
	busy   map[net.Conn]struct{} // checked out by an in-flight exchange
	closed bool
}

// NewConnCache returns an empty cache dialing over nw.
func NewConnCache(nw netx.Network) *ConnCache {
	return &ConnCache{
		nw:   netx.Or(nw),
		idle: make(map[string][]net.Conn),
		busy: make(map[net.Conn]struct{}),
	}
}

// checkout pops the destination's most recently used idle connection, or
// returns nil if the pool is empty and the exchange must dial.
func (cc *ConnCache) checkout(addr string) (net.Conn, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return nil, ErrCacheClosed
	}
	conns := cc.idle[addr]
	if len(conns) == 0 {
		return nil, nil
	}
	conn := conns[len(conns)-1]
	cc.idle[addr] = conns[:len(conns)-1]
	cc.busy[conn] = struct{}{}
	return conn, nil
}

// checkin returns a healthy connection to the destination's pool. A cache
// closed mid-exchange has already closed the connection under us; drop it.
func (cc *ConnCache) checkin(addr string, conn net.Conn) {
	cc.mu.Lock()
	if _, ok := cc.busy[conn]; !ok {
		cc.mu.Unlock()
		conn.Close()
		return
	}
	delete(cc.busy, conn)
	cc.idle[addr] = append(cc.idle[addr], conn)
	cc.mu.Unlock()
}

// discard removes a failed connection from the cache and closes it. With
// stale set the failure was on a reused connection — the peer restarted or
// idled the pool out — so the idle siblings pooled for addr, unused for
// longer still, are dead too and go with it instead of sitting in the pool
// until Close.
func (cc *ConnCache) discard(addr string, conn net.Conn, stale bool) {
	cc.mu.Lock()
	delete(cc.busy, conn)
	var siblings []net.Conn
	if stale {
		siblings = cc.idle[addr]
		delete(cc.idle, addr)
	}
	cc.mu.Unlock()
	conn.Close()
	for _, sib := range siblings {
		sib.Close()
	}
}

// dial opens a fresh connection and registers it as checked out, so a
// concurrent Close still tears it down mid-exchange.
func (cc *ConnCache) dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := netx.DialContext(ctx, cc.nw, addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		conn.Close()
		return nil, ErrCacheClosed
	}
	cc.busy[conn] = struct{}{}
	cc.mu.Unlock()
	return conn, nil
}

// Call performs one request/response exchange with addr over a pooled
// connection, dialing as needed; ctx governs it as it does the package's
// one-shot Call.
func (cc *ConnCache) Call(ctx context.Context, addr string, kind Kind, req any, want Kind, out any) error {
	conn, err := cc.checkout(addr)
	if err != nil {
		return err
	}
	// A reused connection may simply have been idled out by the server
	// between exchanges: its failure earns one retry on a fresh dial.
	for reused := conn != nil; ; reused, conn = false, nil {
		if conn == nil {
			if conn, err = cc.dial(ctx, addr); err != nil {
				return err
			}
		}
		err = Exchange(ctx, conn, kind, req, want, out)
		if err == nil || isRemote(err) {
			cc.checkin(addr, conn)
			return err
		}
		retry := reused && ctx.Err() == nil
		cc.discard(addr, conn, retry)
		if !retry {
			return CtxErr(ctx, err)
		}
	}
}

// Call performs one request/response exchange against addr over nw: dial,
// write the request frame, read (and decode into out, when non-nil) the
// reply of the expected kind. The whole exchange honors ctx — the dial
// aborts on cancellation, the connection's deadline derives from the
// context's, and a cancellation mid-read closes the connection so blocked
// reads return — and a failure on a cancelled context surfaces as
// ctx.Err() (context.Canceled / DeadlineExceeded pass through), never as
// the secondary connection error the teardown produced.
//
// Every connectionless RPC of the overlay (directory calls, chord ring
// RPCs) goes through this helper; session streams, which outlive a single
// exchange, guard their connections directly with netx.Guard.
func Call(ctx context.Context, nw netx.Network, addr string, kind Kind, req any, want Kind, out any) error {
	conn, err := netx.DialContext(ctx, nw, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return CtxErr(ctx, Exchange(ctx, conn, kind, req, want, out))
}

// CtxErr maps a transport failure on a cancelled context to the context's
// own error: cancellation tears the connection down, and the caller must
// see context.Canceled / DeadlineExceeded, not the net.ErrClosed or io.EOF
// the teardown produced.
func CtxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// Exchange runs one write/read pair over an open connection under ctx and
// leaves it open. It reads the reply through a Reader, and a byte read past
// the reply is a stream out of step: ErrMalformedFrame, which makes
// ConnCache drop the connection. Its errors are the connection's own;
// callers map them with CtxErr.
func Exchange(ctx context.Context, conn net.Conn, kind Kind, req any, want Kind, out any) error {
	defer netx.Guard(ctx, conn)()
	if err := Write(conn, kind, req); err != nil {
		return err
	}
	rd := NewReader(conn)
	defer rd.Close()
	err := rd.Expect(want, out)
	if rd.buffered() > 0 && (err == nil || isRemote(err)) {
		return fmt.Errorf("%w: %d bytes after the %s reply", ErrMalformedFrame, rd.buffered(), want)
	}
	return err
}

func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Close closes every cached connection — idle and in flight — and fails
// future Calls. In-flight exchanges see their connection reset rather than
// blocking Close.
func (cc *ConnCache) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	var conns []net.Conn
	for _, pool := range cc.idle {
		conns = append(conns, pool...)
	}
	for conn := range cc.busy {
		conns = append(conns, conn)
	}
	cc.idle, cc.busy = nil, nil
	cc.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	return nil
}
