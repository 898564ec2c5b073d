package directory

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// TestReplyWriteErrorHook: a client that hangs up while the reply is in
// flight must surface through the write-failure counter and the observer
// instead of silently passing for success.
func TestReplyWriteErrorHook(t *testing.T) {
	s := NewServer(1)
	var hooked atomic.Int64
	s.Observer = observe.Func(func(ev observe.Event) {
		if ev.Type != observe.WriteError {
			return
		}
		if ev.Wire != transport.KindCandidates.String() || ev.Err == nil {
			t.Errorf("observer got wire=%s err=%v", ev.Wire, ev.Err)
		}
		hooked.Add(1)
	})
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.Write(client, transport.KindLookup, transport.Lookup{M: 1})
		client.Close() // hang up before reading the candidates
	}()
	s.handle(server)
	<-done
	server.Close()
	if s.WriteFailures() != 1 || hooked.Load() != 1 {
		t.Errorf("WriteFailures = %d, hook fired %d times; want 1 and 1",
			s.WriteFailures(), hooked.Load())
	}
}

// TestShutdownServeAfterClose: a Serve that starts after Close must close
// the listener it was handed instead of leaking it open forever (the
// Close/ListenAndServe race, deterministically ordered).
func TestShutdownServeAfterClose(t *testing.T) {
	s := NewServer(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); err == nil {
		t.Fatal("Serve on a closed server returned nil")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still accepting: Serve leaked it")
	}
}

// TestShutdownCloseDuringListenAndServe races Close against
// ListenAndServe: whichever interleaving occurs, ListenAndServe must
// return and the listener must end up closed.
func TestShutdownCloseDuringListenAndServe(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := NewServer(1)
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() { errc <- s.ListenAndServe("127.0.0.1:0", ready) }()
		if err := s.Close(); err != nil && err != net.ErrClosed {
			// Close may observe the listener already closed; anything else
			// (including closing a nil listener) must not error.
			t.Fatalf("iteration %d: Close: %v", i, err)
		}
		select {
		case err := <-errc:
			if err == nil {
				t.Fatalf("iteration %d: ListenAndServe returned nil", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: ListenAndServe wedged after Close", i)
		}
		addr := <-ready
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Fatalf("iteration %d: listener at %s leaked past Close", i, addr)
		}
	}
}

// TestShutdownStalledClientClose: a client that connects and never writes
// pins a handler goroutine; Close must tear the connection down and
// return promptly instead of wedging on the handler drain.
func TestShutdownStalledClientClose(t *testing.T) {
	s := NewServer(1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait for the handler to be tracked, proving Close races a live
	// in-flight connection and not an empty server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handler never picked up the stalled connection")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on the stalled client")
	}
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve wedged on the stalled client after Close")
	}
}

// TestShutdownStalledClientDeadline: with no Close at all, the
// per-connection deadline alone must cut off a silent client and keep the
// server answering well-formed requests.
func TestShutdownStalledClientDeadline(t *testing.T) {
	ctx := context.Background()
	s := NewServer(1)
	s.Timeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server must hang up on its own; the read unblocking proves it.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the stalled connection alive")
	}

	c := NewClient(l.Addr().String())
	if err := c.Register(ctx, transport.Register{ID: "ok", Addr: "a:1", Class: 1}); err != nil {
		t.Fatalf("server unresponsive after cutting a stalled client: %v", err)
	}
}
