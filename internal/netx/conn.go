package netx

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/splitmix"
)

// vConn is one end of a virtual stream connection. Writes copy the chunk
// once, into a pooled buffer, and schedule its delivery into the peer's
// inbox after the link delay; per-connection FIFO order is preserved even
// under jitter. Streams are reliable, like TCP: dial drops and host crashes
// fail connections, while per-chunk loss (LinkConfig.Loss) surfaces as
// retransmission delay, never as corruption.
type vConn struct {
	v             *Virtual
	local, remote vAddr
	inbox         *inbox
	peer          *vConn

	// Writer-side state, guarded by peer.inbox.mu (every schedule holds
	// it): the jitter/loss stream and the resolved link config, cached
	// behind the network's link epoch so the steady-state send path never
	// touches a shared table.
	rng       splitmix.Rand
	linkEpoch uint64
	link      LinkConfig
	btl       *bottleneck // resolved with link; non-nil iff Bandwidth > 0

	closed     atomic.Bool
	peerClosed atomic.Bool // peer ended the connection: writes fail like EPIPE
}

// connPair is both ends of one virtual connection plus their inboxes and
// the dial's SYN, laid out as a single allocation: the dial path runs a
// quarter-million times in a population-scale crowd, and four heap objects
// per dial (two conns, two inboxes, plus their conds) were a double-digit
// share of its CPU.
type connPair struct {
	a, b   vConn
	ai, bi inbox
	// syn surfaces b on l one link latency after the dial.
	syn clock.Alarm
	l   *vListener
}

// newConnPair builds the dialer's end a and the acceptee's end b of one
// connection to l.
func newConnPair(v *Virtual, local vAddr, l *vListener) *connPair {
	p := &connPair{l: l}
	p.a = vConn{v: v, local: local, remote: l.addr, inbox: &p.ai, peer: &p.b}
	p.b = vConn{v: v, local: l.addr, remote: local, inbox: &p.bi, peer: &p.a}
	initInbox(&p.ai, v.clk, v.waker)
	initInbox(&p.bi, v.clk, v.waker)
	p.syn.Init(v.clk, p)
	return p
}

// Fire implements clock.Handler: the SYN arrived.
func (p *connPair) Fire() { p.l.enqueue(&p.b) }

func (c *vConn) Read(p []byte) (int, error) { return c.inbox.read(p) }

func (c *vConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, &net.OpError{Op: "write", Net: "virtual", Addr: c.remote, Err: net.ErrClosed}
	}
	if c.peerClosed.Load() {
		// The peer hung up: like a TCP stream after FIN/RST, further
		// writes fail instead of streaming into the void (the supplier
		// relies on this to abort cancelled sessions).
		return 0, &net.OpError{Op: "write", Net: "virtual", Addr: c.remote, Err: errConnReset}
	}
	if c.inbox.hardFail.Load() {
		// The connection was torn down (peer crash): writing into it fails
		// like a reset TCP stream.
		return 0, &net.OpError{Op: "write", Net: "virtual", Addr: c.remote, Err: errConnReset}
	}
	if len(p) == 0 {
		return 0, nil
	}
	c.schedule(p, false)
	return len(p), nil
}

// schedule queues one chunk (or, with eof, a graceful end-of-stream mark)
// for delivery into the peer's inbox after the link delay. It takes the
// single pooled copy of data up front — the caller keeps ownership of data
// and may reuse it as soon as schedule returns. Chunks whose delay has
// already elapsed are deposited inline; later ones join the inbox's pending
// list, covered by at most one flush arm per inbox regardless of depth.
func (c *vConn) schedule(data []byte, eof bool) {
	now := c.v.clk.Now()
	ch := newChunk(data, eof)
	in := c.peer.inbox
	in.mu.Lock()
	if in.dead != nil {
		in.mu.Unlock()
		ch.recycle()
		return
	}
	if e := c.v.epoch.Load(); e != c.linkEpoch {
		c.link = c.v.linkFor(c.local.host, c.remote.host)
		c.linkEpoch = e
		c.btl = nil
		if c.link.Bandwidth > 0 {
			c.btl = c.v.bottleneckFor(c.link.Bottleneck, c.remote.host)
		}
	}
	at := now
	if c.btl != nil && len(data) > 0 {
		// Serialization through the shared bottleneck: queue wait behind
		// earlier chunks, transmission time, tail-drop retransmission.
		d, dropped := c.btl.delay(&c.link, len(data), now)
		at = at.Add(d)
		if dropped {
			c.v.queueDrops.Add(1)
		}
	}
	if d := sampleDelay(c.link, &c.rng); d > 0 {
		at = at.Add(d)
	}
	if at.Before(in.lastAt) {
		at = in.lastAt // FIFO: never overtake an earlier chunk
	}
	in.lastAt = at
	ch.at = at
	if in.phead == nil && !at.After(now) {
		// Due already, with nothing in flight ahead of it: deliver inline,
		// without touching the timer heap at all.
		in.depositLocked(ch)
		in.cond.Broadcast()
		in.mu.Unlock()
		return
	}
	if in.ptail == nil {
		in.phead = ch
	} else {
		in.ptail.next = ch
	}
	in.ptail = ch
	if !in.armed {
		in.armed = true
		in.armedAt = at
		in.alarm.Reset(at.Sub(now))
	}
	in.mu.Unlock()
}

// Close closes this end: local reads fail immediately, the peer's reads —
// like a TCP FIN — see io.EOF after every in-flight chunk has been
// delivered, and the peer's writes fail from now on.
func (c *vConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.peer.peerClosed.Store(true)
	c.inbox.fail(net.ErrClosed)
	c.schedule(nil, true)
	c.v.drop(c)
	return nil
}

func (c *vConn) LocalAddr() net.Addr  { return c.local }
func (c *vConn) RemoteAddr() net.Addr { return c.remote }

// Deadlines are accepted and ignored: the overlay's wire protocol does not
// use them, and virtual time makes real-time deadlines meaningless.
func (c *vConn) SetDeadline(time.Time) error      { return nil }
func (c *vConn) SetReadDeadline(time.Time) error  { return nil }
func (c *vConn) SetWriteDeadline(time.Time) error { return nil }

// inbox is the receive side of one connection end: a pending list of
// in-flight chunks covered by a single flush alarm — the inbox itself is
// the alarm's handler, so re-arming allocates nothing — and a ready list of
// delivered chunks consumed (and recycled) by read.
type inbox struct {
	waker waker
	alarm clock.Alarm // the flush: fires Fire at armedAt while armed

	// hardFail mirrors "dead with a non-Close error" so the peer's write
	// path can check it without taking any lock.
	hardFail atomic.Bool

	mu   sync.Mutex
	cond sync.Cond
	// ready list: delivered chunks, readable now (roff = read offset into
	// rhead's data).
	rhead, rtail *chunk
	roff         int
	// pending list: scheduled chunks still in flight; at is non-decreasing
	// along the list (FIFO), so the head is always the earliest.
	phead, ptail *chunk
	// armed marks the one outstanding arm of alarm, due at armedAt.
	armed   bool
	armedAt time.Time
	// lastAt orders scheduled deliveries (virtual instants).
	lastAt time.Time
	eof    bool  // graceful peer close, surfaced after buffered data
	dead   error // hard failure (local close, peer crash): immediate
	// waiting counts blocked readers; wakes counts deliveries that
	// unblocked one and have not yet been consumed (advance gating).
	waiting int
	wakes   int
}

func initInbox(in *inbox, clk clock.Clock, w waker) {
	in.waker = w
	in.cond.L = &in.mu
	in.alarm.Init(clk, in)
}

// depositLocked moves one chunk from in flight to readable (or records the
// end-of-stream mark) and accounts the advance-gating wake. Callers hold
// in.mu and broadcast once after their last deposit.
func (in *inbox) depositLocked(ch *chunk) {
	if ch.eof {
		in.eof = true
		ch.recycle()
	} else {
		ch.next = nil
		if in.rtail == nil {
			in.rhead = ch
		} else {
			in.rtail.next = ch
		}
		in.rtail = ch
	}
	if in.waiting > 0 && in.waker != nil {
		// Hold further advances until the reader consumed this.
		in.wakes++
		in.waker.NoteWake()
	}
}

// Fire implements clock.Handler, the flush: it delivers every pending chunk
// due at the instant the alarm fired, then re-arms for the earliest
// remaining one. It runs on the clock's advancing goroutine with no clock
// lock held. The fire instant is carried in armedAt rather than read from
// the clock: Now() would count as reader activity and retire a wake gate
// that is not ours.
func (in *inbox) Fire() {
	in.mu.Lock()
	now := in.armedAt
	in.armed = false
	if in.dead != nil {
		in.mu.Unlock()
		return
	}
	delivered := false
	for in.phead != nil && !in.phead.at.After(now) {
		ch := in.phead
		in.phead = ch.next
		if in.phead == nil {
			in.ptail = nil
		}
		in.depositLocked(ch)
		delivered = true
	}
	if in.phead != nil {
		in.armed = true
		in.armedAt = in.phead.at
		in.alarm.Reset(in.phead.at.Sub(now))
	}
	if delivered {
		in.cond.Broadcast()
	}
	in.mu.Unlock()
}

// fail kills the inbox immediately: blocked and future reads return err,
// and every buffered or in-flight chunk is released back to the pool.
func (in *inbox) fail(err error) {
	in.mu.Lock()
	if in.dead == nil {
		in.dead = err
		if err != net.ErrClosed {
			in.hardFail.Store(true)
		}
		recycleChain(in.rhead)
		in.rhead, in.rtail, in.roff = nil, nil, 0
		recycleChain(in.phead)
		in.phead, in.ptail = nil, nil
	}
	in.cond.Broadcast()
	in.mu.Unlock()
}

func (in *inbox) read(p []byte) (int, error) {
	in.mu.Lock()
	for in.rhead == nil && !in.eof && in.dead == nil {
		in.waiting++
		in.cond.Wait()
		in.waiting--
	}
	retire := false
	if in.wakes > 0 {
		in.wakes--
		retire = true
	}
	var n int
	var err error
	switch {
	case in.dead != nil:
		err = in.dead
	case in.rhead != nil:
		for n < len(p) && in.rhead != nil {
			m := copy(p[n:], in.rhead.data[in.roff:])
			n += m
			in.roff += m
			if in.roff == len(in.rhead.data) {
				ch := in.rhead
				in.rhead = ch.next
				if in.rhead == nil {
					in.rtail = nil
				}
				in.roff = 0
				ch.recycle() // drained: release, do not pin burst memory
			}
		}
	default:
		err = errEOF
	}
	in.mu.Unlock()
	if retire && in.waker != nil {
		in.waker.WakeDone()
	}
	return n, err
}
