package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/netx"
)

// echoServer answers lookup requests with a candidates frame, handling
// maxPerConn exchanges per connection before hanging up (0 = unlimited) —
// the idle-disconnect shape a persistent client must survive. failWith
// non-empty makes every request an application-level error reply.
func echoServer(t *testing.T, v *netx.Virtual, maxPerConn int, failWith string) string {
	t.Helper()
	l, err := v.Host("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for n := 0; maxPerConn == 0 || n < maxPerConn; n++ {
					env, err := Read(conn)
					if err != nil {
						return
					}
					if failWith != "" {
						Write(conn, KindError, Error{Message: failWith})
						continue
					}
					var q Lookup
					if err := env.Decode(&q); err != nil {
						return
					}
					Write(conn, KindCandidates, Candidates{Len: q.M})
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

func cacheTestNet(t *testing.T) *netx.Virtual {
	t.Helper()
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	t.Cleanup(stop)
	return netx.NewVirtual(clk, 3)
}

// TestConnCacheReusesConnection: many exchanges, one dial.
func TestConnCacheReusesConnection(t *testing.T) {
	v := cacheTestNet(t)
	addr := echoServer(t, v, 0, "")
	cc := NewConnCache(v.Host("cli"))
	defer cc.Close()
	for i := 1; i <= 10; i++ {
		var out Candidates
		if err := cc.Call(context.Background(), addr, KindLookup, Lookup{M: i}, KindCandidates, &out); err != nil {
			t.Fatal(err)
		}
		if out.Len != i {
			t.Fatalf("exchange %d answered %d", i, out.Len)
		}
	}
	if d := v.Dials(); d != 1 {
		t.Errorf("10 exchanges used %d dials, want 1", d)
	}
}

// TestConnCacheReconnects: a server that hangs up after every exchange is
// invisible to the caller — the cache retries once on a fresh dial.
func TestConnCacheReconnects(t *testing.T) {
	v := cacheTestNet(t)
	addr := echoServer(t, v, 1, "")
	cc := NewConnCache(v.Host("cli"))
	defer cc.Close()
	for i := 1; i <= 5; i++ {
		var out Candidates
		if err := cc.Call(context.Background(), addr, KindLookup, Lookup{M: i}, KindCandidates, &out); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	if d := v.Dials(); d != 5 {
		t.Errorf("5 one-shot exchanges used %d dials, want 5", d)
	}
}

// TestConnCacheKeepsConnOnRemoteError: an application-level error reply
// does not cost the connection.
func TestConnCacheKeepsConnOnRemoteError(t *testing.T) {
	v := cacheTestNet(t)
	addr := echoServer(t, v, 0, "nope")
	cc := NewConnCache(v.Host("cli"))
	defer cc.Close()
	for i := 0; i < 4; i++ {
		err := cc.Call(context.Background(), addr, KindLookup, Lookup{M: 1}, KindCandidates, nil)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("exchange %d: err = %v, want RemoteError", i, err)
		}
	}
	if d := v.Dials(); d != 1 {
		t.Errorf("4 refused exchanges used %d dials, want 1", d)
	}
}

// TestConnCacheClose: Close fails future calls and closes the cached
// connection.
func TestConnCacheClose(t *testing.T) {
	v := cacheTestNet(t)
	addr := echoServer(t, v, 0, "")
	cc := NewConnCache(v.Host("cli"))
	if err := cc.Call(context.Background(), addr, KindLookup, Lookup{M: 1}, KindCandidates, nil); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cc.Call(context.Background(), addr, KindLookup, Lookup{M: 1}, KindCandidates, nil); !errors.Is(err, ErrCacheClosed) {
		t.Errorf("Call after Close = %v, want ErrCacheClosed", err)
	}
	if err := cc.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestConnCacheHonorsContext: cancellation surfaces as ctx.Err and does
// not wedge the slot for later calls.
func TestConnCacheHonorsContext(t *testing.T) {
	v := cacheTestNet(t)
	addr := echoServer(t, v, 0, "")
	cc := NewConnCache(v.Host("cli"))
	defer cc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := cc.Call(ctx, addr, KindLookup, Lookup{M: 1}, KindCandidates, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Call = %v, want context.Canceled", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cc.Call(context.Background(), addr, KindLookup, Lookup{M: 2}, KindCandidates, nil)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Call after cancelled Call: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slot wedged after cancellation")
	}
}

// TestConnCacheDropsConnOnBadFrame: a reply that is not a frame of this
// wire format — malformed, or of another version — costs the connection;
// only a RemoteError leaves it pooled.
func TestConnCacheDropsConnOnBadFrame(t *testing.T) {
	replies := []struct {
		raw  []byte
		want error
	}{
		{[]byte{0, 0, 0, 0}, ErrMalformedFrame},
		{[]byte{0, 0, 0, 3, wireVersion, byte(KindCandidates), 0xff}, ErrMalformedFrame},
		{append([]byte{0, 0, 0, 16}, `{"kind":"error"}`...), ErrWireVersion},
	}
	for _, reply := range replies {
		v := cacheTestNet(t)
		l, err := v.Host("srv").Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					for {
						if _, err := Read(conn); err != nil {
							return
						}
						conn.Write(reply.raw)
					}
				}()
			}
		}()
		cc := NewConnCache(v.Host("cli"))
		for i := 0; i < 3; i++ {
			err := cc.Call(context.Background(), l.Addr().String(), KindLookup, Lookup{M: 1}, KindCandidates, &Candidates{})
			if !errors.Is(err, reply.want) {
				t.Errorf("reply %x: err = %v, want %v", reply.raw, err, reply.want)
			}
		}
		cc.Close()
		if d := v.Dials(); d != 3 {
			t.Errorf("reply %x: 3 failed exchanges used %d dials, want 3 (the connection must not be reused)", reply.raw, d)
		}
	}
}

// TestConnCacheDropsDeadSiblings: a burst of concurrent calls pools one
// connection each; when the peer restarts, the first failed reuse must
// close the idle siblings too — they died with it — instead of leaving
// them pooled until Close (a long-lived chord member under churn kept a
// handful per departed neighbour).
func TestConnCacheDropsDeadSiblings(t *testing.T) {
	v := cacheTestNet(t)
	const addr, burst = "srv:9000", 3
	var arrived sync.WaitGroup
	arrived.Add(burst)
	var next atomic.Int64
	// The first three requests wait for each other, so the burst holds
	// three connections at once.
	srv := NewEndpoint("srv", nil)
	handler := func(barrier bool) func(net.Conn) {
		return func(conn net.Conn) {
			for {
				if _, err := Read(conn); err != nil {
					return
				}
				if barrier && next.Add(1) <= burst {
					arrived.Done()
					arrived.Wait()
				}
				Write(conn, KindCandidates, Candidates{})
			}
		}
	}
	if err := srv.Start(v.Host("srv"), addr, handler(true)); err != nil {
		t.Fatal(err)
	}
	cc := NewConnCache(v.Host("cli"))
	defer cc.Close()
	call := func() error {
		return cc.Call(context.Background(), addr, KindLookup, Lookup{M: 1}, KindCandidates, nil)
	}
	var calls sync.WaitGroup
	for i := 0; i < burst; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if err := call(); err != nil {
				t.Error(err)
			}
		}()
	}
	calls.Wait()
	pooled := func() int {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.idle[addr])
	}
	if got := pooled(); got != burst {
		t.Fatalf("burst pooled %d connections, want %d", got, burst)
	}

	// The peer restarts on the same address: every pooled connection dies.
	srv.Close()
	reborn := NewEndpoint("srv", nil)
	if err := reborn.Start(v.Host("srv"), addr, handler(false)); err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if err := call(); err != nil {
		t.Fatalf("call after the restart: %v", err)
	}
	if got := pooled(); got != 1 {
		t.Errorf("%d connections pooled after the restart, want only the fresh one", got)
	}
}

// TestExchangeRefusesTrailingBytes: a reply with stray bytes after it in the
// same write — after a good reply or a refusal alike — leaves the stream out
// of step, so the exchange fails with ErrMalformedFrame and the cache holds
// no idle connection afterwards.
func TestExchangeRefusesTrailingBytes(t *testing.T) {
	for _, reply := range []struct {
		kind Kind
		body any
	}{
		{KindCandidates, Candidates{Len: 1}},
		{KindError, Error{Message: "no"}},
	} {
		v := cacheTestNet(t)
		l, err := v.Host("srv").Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		raw, err := Append(nil, reply.kind, reply.body)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, 0, 0)
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					if _, err := Read(conn); err == nil {
						conn.Write(raw)
					}
				}()
			}
		}()
		cc := NewConnCache(v.Host("cli"))
		err = cc.Call(context.Background(), l.Addr().String(), KindLookup, Lookup{M: 1}, KindCandidates, &Candidates{})
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s reply and 2 stray bytes: err = %v, want ErrMalformedFrame", reply.kind, err)
		}
		cc.mu.Lock()
		idle := len(cc.idle[l.Addr().String()])
		cc.mu.Unlock()
		if idle != 0 {
			t.Errorf("%s reply and 2 stray bytes: %d idle connections pooled, want none", reply.kind, idle)
		}
		cc.Close()
	}
}
