package directory

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/errs"
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

// The two tests below drive the server's lifecycle through its public
// API; the accept/track/close mechanism itself is tested with
// transport.Endpoint.

// TestShutdownServeAfterClose: after Close, Start refuses and Serve closes
// the listener it was handed instead of leaking it open forever.
func TestShutdownServeAfterClose(t *testing.T) {
	s := NewServer(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(nil, "127.0.0.1:0"); !errors.Is(err, errs.ErrClosed) {
		t.Errorf("Start on a closed server: %v, want ErrClosed", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); !errors.Is(err, errs.ErrClosed) {
		t.Errorf("Serve on a closed server: %v, want ErrClosed", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still accepting: Serve leaked it")
	}
}

// TestShutdownStalledClientClose: a client that stops talking pins a
// handler goroutine; Close must cut it off and return promptly, leaving
// nothing listening.
func TestShutdownStalledClientClose(t *testing.T) {
	s := NewServer(1)
	addr, err := s.Start(nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// One answered exchange proves a handler holds the connection, so
	// Close races a live in-flight connection and not an idle server.
	if err := transport.Write(stalled, transport.KindLookup, transport.Lookup{M: 1}); err != nil {
		t.Fatal(err)
	}
	if err := transport.ReadExpect(stalled, transport.KindCandidates, nil); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on the stalled client")
	}
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stalled.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("stalled client survived Close: read returned %v", err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("listener at %s leaked past Close", addr)
	}
}
