package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/errs"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
)

// exchangeTimeout bounds one request/response exchange on an accepted
// connection: long enough for any honest peer on a congested WAN, short
// enough that one that connects and stalls cannot pin a handler goroutine
// and a descriptor for the component's lifetime. Virtual connections
// ignore deadlines (virtual time makes them meaningless) and rely on Close.
const exchangeTimeout = 10 * time.Second

// Endpoint is the listening side of a component — the directory server,
// the live node and the chord peer each own one and keep only their handler
// and domain state. It binds at most once, runs every accepted connection
// through the handler on its own goroutine under the per-exchange deadline,
// tracks the connections in flight so Close can abort them, and counts and
// reports reply writes that failed. Create with NewEndpoint.
type Endpoint struct {
	component string
	observer  observe.Observer
	timeout   time.Duration // exchangeTimeout; tests shorten it

	writeFails atomic.Int64

	mu       sync.Mutex
	bound    bool         // a Start or Serve has claimed the one bind
	listener net.Listener // nil until that bind has a listener
	addr     string       // listener's address, formatted once at the bind
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup // the accept loop and every handler
}

// NewEndpoint returns an unbound endpoint. component names it in errors and
// in the WriteError events observer (nil for none) receives.
func NewEndpoint(component string, observer observe.Observer) *Endpoint {
	return &Endpoint{
		component: component,
		observer:  observer,
		timeout:   exchangeTimeout,
		conns:     make(map[net.Conn]struct{}),
	}
}

// Start listens on addr over nw (nil means real TCP; an empty addr picks a
// port) and serves accepted connections with handle in the background. An
// endpoint that is closed or was bound before refuses without opening
// anything.
func (e *Endpoint) Start(nw netx.Network, addr string, handle func(net.Conn)) error {
	if err := e.claim(); err != nil {
		return err
	}
	l, err := netx.Or(nw).Listen(addr)
	if err != nil {
		e.mu.Lock()
		e.bound = false
		e.mu.Unlock()
		return fmt.Errorf("%s: listen: %w", e.component, err)
	}
	if err := e.install(l); err != nil {
		return err
	}
	go e.accept(l, handle)
	return nil
}

// Serve serves connections accepted from l with handle until the listener
// fails, which Close makes it do, and returns that error once every handler
// has finished. It owns l from the call on: an endpoint that is closed or
// was bound before closes l instead of leaking it open.
func (e *Endpoint) Serve(l net.Listener, handle func(net.Conn)) error {
	if err := e.claim(); err != nil {
		l.Close()
		return err
	}
	if err := e.install(l); err != nil {
		return err
	}
	err := e.accept(l, handle)
	e.wg.Wait()
	return err
}

// claim reserves the endpoint's one bind before anything is opened.
func (e *Endpoint) claim() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.closed:
		return fmt.Errorf("%s: %w", e.component, errs.ErrClosed)
	case e.bound:
		return fmt.Errorf("%s: already listening", e.component)
	}
	e.bound = true
	return nil
}

// install gives the claimed bind its listener and accounts for the accept
// loop about to run. A Close that ran since the claim found no listener to
// close, so l is closed here.
func (e *Endpoint) install(l net.Listener) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		l.Close()
		return fmt.Errorf("%s: %w", e.component, errs.ErrClosed)
	}
	e.listener = l
	e.addr = l.Addr().String()
	e.wg.Add(1)
	return nil
}

// accept hands each connection to handle on its own goroutine until Accept
// fails. A connection that lost the race against Close — accepted after
// Close snapshotted the tracked set — is refused, and the loop drains until
// the dying listener surfaces the close as the Accept error it returns.
func (e *Endpoint) accept(l net.Listener, handle func(net.Conn)) error {
	defer e.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			continue
		}
		e.conns[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
				e.wg.Done()
			}()
			e.Arm(conn)
			handle(conn)
		}()
	}
}

// Arm starts the per-exchange deadline on conn: reads and writes past it
// fail, which ends the handler. Every connection is armed before its
// handler runs; a handler that serves several exchanges re-arms before
// each, and one that turns the connection into a long-lived stream clears
// the deadline with conn.SetDeadline(time.Time{}).
func (e *Endpoint) Arm(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(e.timeout)) // no-op on virtual conns
}

// Reply writes one response frame. A hangup mid-reply looks like success to
// the request/response flow, so a failure is counted in WriteFailures and
// reported to the observer as a WriteError event before it is returned.
func (e *Endpoint) Reply(conn net.Conn, kind Kind, body any) error {
	return e.counted(kind, Write(conn, kind, body))
}

// Send writes frames — whole frames Append built, back to back — in one
// Write, and counts a failure as Reply does, once for the lot; the event
// names the first frame's kind, so the connection's error goes back as it
// came.
func (e *Endpoint) Send(conn net.Conn, frames []byte) error {
	_, err := conn.Write(frames)
	return e.counted(Kind(frames[5]), err)
}

func (e *Endpoint) counted(kind Kind, err error) error {
	if err != nil {
		e.writeFails.Add(1)
		observe.Emit(e.observer, observe.Event{
			Component: e.component,
			Type:      observe.WriteError,
			Wire:      kind.String(),
			Err:       err,
		})
	}
	return err
}

// WriteFailures counts the replies that failed mid-exchange.
func (e *Endpoint) WriteFailures() int64 { return e.writeFails.Load() }

// Tracked returns the number of accepted connections whose handler has not
// finished — a parked one included. It is the bound on the descriptors and
// goroutines the component's peers hold on it right now.
func (e *Endpoint) Tracked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.conns)
}

// Addr returns the address the endpoint listens on, "" before its bind.
func (e *Endpoint) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addr
}

// Close closes the listener and every connection in flight — a stalled
// client cannot wedge it — and returns once the accept loop and all
// handlers have exited. Later calls return nil at once.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	l := e.listener
	conns := make([]net.Conn, 0, len(e.conns))
	for conn := range e.conns {
		conns = append(conns, conn)
	}
	e.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	e.wg.Wait()
	return err
}
