package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/errs"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
)

// substrate is one network an endpoint test runs on: srv listens, cli dials.
type substrate struct {
	name     string
	srv, cli netx.Network
}

// substrates returns the real loopback TCP stack and a virtual network.
func substrates(t *testing.T) []substrate {
	v := cacheTestNet(t)
	return []substrate{
		{"tcp", netx.System, netx.System},
		{"vnet", v.Host("srv"), v.Host("cli")},
	}
}

// onSubstrates runs f as one subtest per substrate.
func onSubstrates(t *testing.T, f func(t *testing.T, s substrate)) {
	for _, s := range substrates(t) {
		t.Run(s.name, func(t *testing.T) { f(t, s) })
	}
}

// answerLookups is the handler of a looping request/response component: it
// re-arms the deadline per exchange and answers lookups until the client
// hangs up, stalls or the endpoint closes.
func answerLookups(e *Endpoint) func(net.Conn) {
	return func(conn net.Conn) {
		for {
			e.Arm(conn)
			env, err := Read(conn)
			if err != nil {
				return
			}
			var q Lookup
			if err := env.Decode(&q); err != nil {
				return
			}
			e.Reply(conn, KindCandidates, Candidates{Len: q.M})
		}
	}
}

// within fails the test unless f returns inside five seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s wedged", what)
	}
}

// TestShutdownServeAfterClose: a Serve that starts after Close must close
// the listener it was handed instead of leaking it open forever (the
// Close-versus-bind race, deterministically ordered), and a Start must
// refuse without opening one.
func TestShutdownServeAfterClose(t *testing.T) {
	onSubstrates(t, func(t *testing.T, s substrate) {
		e := NewEndpoint("test", nil)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := s.srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Serve(l, answerLookups(e)); !errors.Is(err, errs.ErrClosed) {
			t.Fatalf("Serve on a closed endpoint: %v, want ErrClosed", err)
		}
		if _, err := l.Accept(); err == nil {
			t.Fatal("listener still accepting: Serve leaked it")
		}
		if err := e.Start(s.srv, "", answerLookups(e)); !errors.Is(err, errs.ErrClosed) {
			t.Fatalf("Start on a closed endpoint: %v, want ErrClosed", err)
		}
		if addr := e.Addr(); addr != "" {
			t.Fatalf("closed endpoint bound %s", addr)
		}
	})
}

// TestShutdownCloseDuringStart races Close against Start: whichever
// interleaving occurs, both return and nothing is left listening.
func TestShutdownCloseDuringStart(t *testing.T) {
	onSubstrates(t, func(t *testing.T, s substrate) {
		for i := 0; i < 20; i++ {
			e := NewEndpoint("test", nil)
			started := make(chan error, 1)
			go func() { started <- e.Start(s.srv, "", answerLookups(e)) }()
			within(t, "Close", func() {
				if err := e.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
					t.Errorf("iteration %d: Close: %v", i, err)
				}
			})
			<-started
			// Start may have won (the endpoint served until Close) or lost
			// (refused); either way its listener, if any, is closed now.
			if addr := e.Addr(); addr != "" {
				if conn, err := s.cli.Dial(addr); err == nil {
					conn.Close()
					t.Fatalf("iteration %d: listener at %s leaked past Close", i, addr)
				}
			}
		}
	})
}

// TestShutdownStalledClientClose: a client that connects and never writes
// pins a handler goroutine; Close must tear the connection down and return
// promptly — after the handler has — instead of wedging on the drain.
func TestShutdownStalledClientClose(t *testing.T) {
	onSubstrates(t, func(t *testing.T, s substrate) {
		e := NewEndpoint("test", nil)
		l, err := s.srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		entered := make(chan struct{})
		var exited atomic.Bool
		served := make(chan error, 1)
		go func() {
			served <- e.Serve(l, func(conn net.Conn) {
				close(entered)
				Read(conn) // blocks: the client never writes
				exited.Store(true)
			})
		}()
		conn, err := s.cli.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Close must race a live in-flight connection, not an idle endpoint.
		<-entered
		within(t, "Close on a stalled client", func() { e.Close() })
		if !exited.Load() {
			t.Error("Close returned before the handler did")
		}
		within(t, "Serve after Close", func() {
			if err := <-served; err == nil {
				t.Error("Serve returned nil")
			}
		})
	})
}

// lateListener hands out one more connection after it was closed, then
// fails: the accept that lost the race against Close.
type lateListener struct {
	accepting sync.Once
	entered   chan struct{} // closed by the first Accept
	closed    chan struct{}
	late      chan net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	l.accepting.Do(func() { close(l.entered) })
	<-l.closed
	if conn, ok := <-l.late; ok {
		return conn, nil
	}
	return nil, net.ErrClosed
}
func (l *lateListener) Close() error   { close(l.closed); return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestShutdownAcceptAfterClose: a connection accepted after Close
// snapshotted the tracked set is refused — closed, never handled — and the
// loop keeps draining until the listener reports the close.
func TestShutdownAcceptAfterClose(t *testing.T) {
	e := NewEndpoint("test", nil)
	server, client := net.Pipe()
	l := &lateListener{entered: make(chan struct{}), closed: make(chan struct{}), late: make(chan net.Conn, 1)}
	l.late <- server
	close(l.late)
	var handled atomic.Int64
	served := make(chan error, 1)
	go func() { served <- e.Serve(l, func(net.Conn) { handled.Add(1) }) }()
	<-l.entered
	within(t, "Close", func() { e.Close() })
	if err := <-served; !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve returned %v, want the listener's close", err)
	}
	if handled.Load() != 0 {
		t.Error("a connection accepted after Close reached the handler")
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the late connection was not closed: read returned %v", err)
	}
}

// TestShutdownStalledClientDeadline: with no Close at all, the
// per-exchange deadline alone cuts off a client that connects and never
// writes, and one that goes silent after an exchange, while the endpoint
// keeps answering. Real TCP only: virtual connections ignore deadlines.
func TestShutdownStalledClientDeadline(t *testing.T) {
	e := NewEndpoint("test", nil)
	e.timeout = 100 * time.Millisecond
	if err := e.Start(nil, "", answerLookups(e)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	silent, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	idle, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	var got Candidates
	if err := Exchange(context.Background(), idle, KindLookup, Lookup{M: 3}, KindCandidates, &got); err != nil || got.Len != 3 {
		t.Fatalf("exchange: %v (%+v)", err, got)
	}
	// The endpoint must hang up on its own; the reads unblocking prove it.
	for name, conn := range map[string]net.Conn{"silent": silent, "idle": idle} {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s client kept alive: read returned %v", name, err)
		}
	}
	if err := Call(context.Background(), netx.System, e.Addr(), KindLookup, Lookup{M: 2}, KindCandidates, &got); err != nil {
		t.Fatalf("endpoint unresponsive after cutting stalled clients: %v", err)
	}
}

// TestShutdownSecondBindRefused: an endpoint binds once. A second Start
// opens nothing, a second Serve closes what it was handed, and the first
// listener — still the only one — closes with the endpoint.
func TestShutdownSecondBindRefused(t *testing.T) {
	onSubstrates(t, func(t *testing.T, s substrate) {
		e := NewEndpoint("test", nil)
		if err := e.Start(s.srv, "", answerLookups(e)); err != nil {
			t.Fatal(err)
		}
		addr := e.Addr()
		if err := e.Start(s.srv, "", answerLookups(e)); err == nil {
			t.Error("second Start succeeded")
		}
		if got := e.Addr(); got != addr {
			t.Errorf("second Start moved the endpoint from %s to %s", addr, got)
		}
		l, err := s.srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Serve(l, answerLookups(e)); err == nil {
			t.Error("Serve on a started endpoint succeeded")
		}
		if _, err := l.Accept(); err == nil {
			t.Error("refused Serve leaked its listener")
		}
		var got Candidates
		if err := Call(context.Background(), s.cli, addr, KindLookup, Lookup{M: 1}, KindCandidates, &got); err != nil {
			t.Errorf("first bind stopped answering: %v", err)
		}
		within(t, "Close", func() { e.Close() })
		if conn, err := s.cli.Dial(addr); err == nil {
			conn.Close()
			t.Errorf("listener at %s outlived Close", addr)
		}
	})
}

// TestStartListenFailure: a Start whose listen fails reports it, leaves the
// endpoint unbound and lets a later Start bind.
func TestStartListenFailure(t *testing.T) {
	onSubstrates(t, func(t *testing.T, s substrate) {
		taken := NewEndpoint("taken", nil)
		if err := taken.Start(s.srv, "", answerLookups(taken)); err != nil {
			t.Fatal(err)
		}
		defer taken.Close()
		e := NewEndpoint("test", nil)
		defer e.Close()
		if err := e.Start(s.srv, taken.Addr(), answerLookups(e)); err == nil {
			t.Fatal("Start on an address in use succeeded")
		}
		if addr := e.Addr(); addr != "" {
			t.Fatalf("failed Start left the endpoint bound to %s", addr)
		}
		if err := e.Start(s.srv, "", answerLookups(e)); err != nil {
			t.Fatalf("Start after a failed listen: %v", err)
		}
	})
}

// TestReplyFailureCountedOnce: a reply that reaches the client is neither
// counted nor reported; one cut off by a hangup is counted and emitted
// exactly once, named after the component and the frame, and returned.
func TestReplyFailureCountedOnce(t *testing.T) {
	var events []observe.Event
	e := NewEndpoint("comp", observe.Func(func(ev observe.Event) { events = append(events, ev) }))
	server, client := net.Pipe()
	go ReadExpect(client, KindRegisterOK, nil)
	if err := e.Reply(server, KindRegisterOK, nil); err != nil {
		t.Fatal(err)
	}
	if e.WriteFailures() != 0 || len(events) != 0 {
		t.Fatalf("delivered reply: %d failures, events %+v", e.WriteFailures(), events)
	}
	client.Close()
	err := e.Reply(server, KindCandidates, Candidates{})
	if err == nil {
		t.Fatal("Reply to a hung-up client returned nil")
	}
	if e.WriteFailures() != 1 || len(events) != 1 {
		t.Fatalf("failed reply: %d failures, %d events; want 1 and 1", e.WriteFailures(), len(events))
	}
	want := observe.Event{Component: "comp", Type: observe.WriteError, Wire: KindCandidates.String(), Err: err}
	if events[0] != want {
		t.Errorf("event %+v, want %+v", events[0], want)
	}
}
