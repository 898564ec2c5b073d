package netx

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/clock"
)

// dialBurst dials l n times from host "a" on a hand-driven clock, surfaces
// and accepts all n, and closes both ends of each.
func dialBurst(tb testing.TB, clk *clock.Virtual, v *Virtual, l net.Listener, n int, accepted func(*vConn)) {
	tb.Helper()
	dialed := make([]net.Conn, n)
	for i := range dialed {
		c, err := v.Host("a").Dial(l.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		dialed[i] = c
	}
	clk.Advance(time.Millisecond) // the SYNs arrive
	for _, c := range dialed {
		s, err := l.Accept()
		if err != nil {
			tb.Fatal(err)
		}
		if accepted != nil {
			accepted(s.(*vConn))
		}
		c.Close()
		s.Close()
	}
	clk.Advance(time.Millisecond) // the FINs arrive
}

// TestListenerQueueReleasesAccepted runs 1,000 dial → accept → close rounds
// against one listener, in bursts so the accept queue grows: afterwards no
// slot of the queue's backing array may still reference an accepted
// connection, and the connections must be collectable while the listener
// lives. Popping with queue = queue[1:] left every accepted *vConn — and
// the connPair behind it — reachable until append next reallocated.
func TestListenerQueueReleasesAccepted(t *testing.T) {
	clk := clock.NewVirtual()
	v := NewVirtual(clk, 1)
	v.SetDefaultLink(LinkConfig{Latency: 300 * time.Microsecond})
	nl, err := v.Host("b").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()

	const bursts, perBurst = 10, 100
	var collected atomic.Int64
	for i := 0; i < bursts; i++ {
		dialBurst(t, clk, v, nl, perBurst, func(c *vConn) {
			runtime.AddCleanup(c, func(struct{}) { collected.Add(1) }, struct{}{})
		})
	}

	l := nl.(*vListener)
	l.mu.Lock()
	for i, c := range l.queue[:cap(l.queue)] {
		if c != nil {
			t.Errorf("queue slot %d of %d still references an accepted connection", i, cap(l.queue))
			break
		}
	}
	l.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < bursts*perBurst && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != bursts*perBurst {
		t.Errorf("%d of %d accepted connections were collected with the listener alive", got, bursts*perBurst)
	}
	runtime.KeepAlive(nl)
}

// TestListenerQueueSlidesBacklog keeps the accept queue from ever draining
// — one connection always waits — through 1,000 rounds: the queue must hand
// connections out in arrival order and stay as large as its backlog, not as
// long as its history.
func TestListenerQueueSlidesBacklog(t *testing.T) {
	v := NewVirtual(clock.NewVirtual(), 1)
	nl, err := v.Host("b").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	l := nl.(*vListener)
	conns := make([]*vConn, 1001)
	for i := range conns {
		conns[i] = &newConnPair(v, vAddr{host: "a", port: i + 1}, l).b
	}
	l.enqueue(conns[0])
	for i := 1; i < len(conns); i++ {
		l.enqueue(conns[i])
		got, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if got != net.Conn(conns[i-1]) {
			t.Fatalf("round %d: accepted %v, want the connection enqueued one round earlier", i, got.RemoteAddr())
		}
	}
	if c := cap(l.queue); c > 8 {
		t.Errorf("queue capacity %d after 1,000 rounds with a backlog of one", c)
	}
}
