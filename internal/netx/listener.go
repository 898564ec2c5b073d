package netx

import (
	"io"
	"net"
	"sync"
)

var errEOF = io.EOF

// vListener is a virtual listener: dials enqueue the acceptee end of the
// connection after one link latency.
type vListener struct {
	v    *Virtual
	addr vAddr

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*vConn // connections awaiting Accept are queue[head:]
	head    int
	closed  bool
	waiting int
	wakes   int
}

// enqueue surfaces one accepted connection. It runs on the clock's
// advancing goroutine.
func (l *vListener) enqueue(c *vConn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		// The listener went away while the dial was in flight: the dialer
		// sees a reset, as with a refused half-open TCP connection.
		c.inbox.fail(errConnReset)
		c.peer.inbox.fail(errConnReset)
		return
	}
	if l.head > 0 && l.head >= len(l.queue)/2 && len(l.queue) == cap(l.queue) {
		// Full, and at least half of it already accepted: slide the
		// backlog down instead of growing, so a listener that is never
		// quite drained stays as large as its backlog, not its history.
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, c)
	if l.waiting > 0 && l.v.waker != nil {
		l.wakes++
		l.v.waker.NoteWake()
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *vListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	for l.head == len(l.queue) && !l.closed {
		l.waiting++
		l.cond.Wait()
		l.waiting--
	}
	retire := false
	if l.wakes > 0 {
		l.wakes--
		retire = true
	}
	var c *vConn
	var err error
	if l.head < len(l.queue) {
		// Clear the popped slot and rewind once drained: the backing array
		// must not keep an accepted connection reachable, and re-slicing
		// from the front would shed capacity until append reallocates.
		c = l.queue[l.head]
		l.queue[l.head] = nil
		if l.head++; l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
		}
	} else {
		err = net.ErrClosed
	}
	l.mu.Unlock()
	if retire && l.v.waker != nil {
		l.v.waker.WakeDone()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (l *vListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.queue[l.head:]
	l.queue, l.head = nil, 0
	l.cond.Broadcast()
	l.mu.Unlock()

	sh := l.v.shardFor(l.addr.host)
	sh.mu.Lock()
	if sh.listeners[l.addr.String()] == l {
		delete(sh.listeners, l.addr.String())
	}
	sh.mu.Unlock()
	for _, c := range pending {
		c.inbox.fail(errConnReset)
		c.peer.inbox.fail(errConnReset)
	}
	return nil
}

func (l *vListener) Addr() net.Addr { return l.addr }
