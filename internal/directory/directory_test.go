package directory

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/transport"
)

// startServer runs a directory server on a loopback listener and returns
// its address plus a cleanup function.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer(1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func TestRegisterLookupUnregister(t *testing.T) {
	ctx := context.Background()
	addr, srv := startServer(t)
	c := NewClient(addr)
	for i, class := range []int{1, 2, 3, 4} {
		err := c.Register(ctx, transport.Register{
			ID:    string(rune('a' + i)),
			Addr:  "127.0.0.1:1000",
			Class: bandwidth.Class(class),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Len() != 4 {
		t.Fatalf("Len = %d", srv.Len())
	}
	cands, err := c.Candidates(ctx, "", 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("Lookup returned %d", len(cands))
	}
	if err := c.Unregister(ctx, "a", ""); err != nil {
		t.Fatal(err)
	}
	if srv.Len() != 3 {
		t.Fatalf("Len after unregister = %d", srv.Len())
	}
	// Unregistering twice is idempotent at the protocol level.
	if err := c.Unregister(ctx, "a", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterDuplicateRejected(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	c := NewClient(addr)
	reg := transport.Register{ID: "x", Addr: "127.0.0.1:1", Class: 1}
	if err := c.Register(ctx, reg); err != nil {
		t.Fatal(err)
	}
	err := c.Register(ctx, reg)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	c := NewClient(addr)
	if err := c.Register(ctx, transport.Register{ID: "", Addr: "a", Class: 1}); err == nil {
		t.Error("empty ID should fail")
	}
	if err := c.Register(ctx, transport.Register{ID: "x", Addr: "", Class: 1}); err == nil {
		t.Error("empty addr should fail")
	}
	if err := c.Register(ctx, transport.Register{ID: "x", Addr: "a", Class: 0}); err == nil {
		t.Error("invalid class should fail")
	}
}

func TestLookupExcludesSelf(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	c := NewClient(addr)
	for _, id := range []string{"me", "other1", "other2"} {
		if err := c.Register(ctx, transport.Register{ID: id, Addr: "127.0.0.1:1", Class: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		cands, err := c.Candidates(ctx, "", 2, "me")
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 {
			t.Fatalf("got %d candidates, want 2", len(cands))
		}
		for _, cand := range cands {
			if cand.ID == "me" {
				t.Fatal("lookup returned the excluded peer")
			}
		}
	}
}

func TestLookupEmptyDirectory(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	cands, err := NewClient(addr).Candidates(ctx, "", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("got %d candidates from empty directory", len(cands))
	}
}

func TestLookupReturnsAddresses(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	c := NewClient(addr)
	if err := c.Register(ctx, transport.Register{ID: "x", Addr: "10.0.0.1:42", Class: 3}); err != nil {
		t.Fatal(err)
	}
	cands, err := c.Candidates(ctx, "", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Addr != "10.0.0.1:42" || cands[0].Class != 3 {
		t.Errorf("candidate = %+v", cands)
	}
}

func TestServerRejectsUnexpectedKind(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.Write(conn, transport.KindProbe, transport.Probe{}); err != nil {
		t.Fatal(err)
	}
	err = transport.ReadExpect(conn, transport.KindRegisterOK, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("err = %v", err)
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 0, 0, 3, 'x'})
	conn.Close()
	// The server must still answer a well-formed request.
	c := NewClient(addr)
	if err := c.Register(ctx, transport.Register{ID: "ok", Addr: "a:1", Class: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestClientDialFailure(t *testing.T) {
	ctx := context.Background()
	c := NewClient("127.0.0.1:1") // nothing listens here
	if err := c.Register(ctx, transport.Register{ID: "x", Addr: "a", Class: 1}); err == nil {
		t.Error("dial failure should surface")
	}
	if _, err := c.Candidates(ctx, "", 1, ""); err == nil {
		t.Error("dial failure should surface")
	}
}

// TestLookupBoundsM: M arrives from the network. Whatever it says, a lookup
// samples at most maxLookupM candidates (the sampler's cost is quadratic in
// M), and a negative M yields none rather than a panic.
func TestLookupBoundsM(t *testing.T) {
	s := NewServer(1)
	for i := 0; i < maxLookupM+100; i++ {
		if err := s.register(transport.Register{ID: fmt.Sprintf("p%d", i), Addr: "127.0.0.1:1", Class: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ m, want int }{
		{-1, 0}, {0, 0}, {8, 8}, {maxLookupM, maxLookupM}, {maxLookupM + 50, maxLookupM}, {1 << 40, maxLookupM},
	} {
		for _, exclude := range []string{"", "p7"} {
			c := s.lookup(transport.Lookup{M: tc.m, Exclude: exclude})
			if len(c.Peers) != tc.want || c.Len != maxLookupM+100 {
				t.Errorf("M=%d exclude=%q: %d candidates of %d, want %d of %d", tc.m, exclude, len(c.Peers), c.Len, tc.want, maxLookupM+100)
			}
			seen := make(map[string]bool, len(c.Peers))
			for _, p := range c.Peers {
				if p.ID == exclude || seen[p.ID] {
					t.Fatalf("M=%d exclude=%q: candidate %q excluded or repeated", tc.m, exclude, p.ID)
				}
				seen[p.ID] = true
			}
		}
	}
}

// TestRefreshDoesNotMoveTheSample: a lease refresh replaces a peer's entry
// where it stands, so two registries with one seed answer every lookup
// alike however many refreshes, in whatever order, reached one of them in
// between — a sharded lookup is then a function of the seeds, not of when
// the lease timer happened to fire. (Refreshing by unregister + register
// moved the entry to the end and another into its slot.)
func TestRefreshDoesNotMoveTheSample(t *testing.T) {
	quiet, refreshed := NewServer(7), NewServer(7)
	for i := 0; i < 40; i++ {
		r := transport.Register{ID: fmt.Sprintf("p%d", i), Addr: "127.0.0.1:1", Class: 2}
		if err := quiet.register(r); err != nil {
			t.Fatal(err)
		}
		if err := refreshed.register(r); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		id := fmt.Sprintf("p%d", (round*7)%40)
		if err := refreshed.register(transport.Register{ID: id, Addr: "127.0.0.1:2", Class: 3, Refresh: true}); err != nil {
			t.Fatal(err)
		}
		a, b := quiet.lookup(transport.Lookup{M: 8}), refreshed.lookup(transport.Lookup{M: 8})
		for i := range a.Peers {
			if a.Peers[i].ID != b.Peers[i].ID {
				t.Fatalf("round %d: pick %d is %s without refreshes, %s with", round, i, a.Peers[i].ID, b.Peers[i].ID)
			}
		}
	}
	if c := refreshed.lookup(transport.Lookup{M: 1 << 10}); len(c.Peers) != 40 {
		t.Fatalf("%d peers after refreshes, want 40", len(c.Peers))
	} else {
		for _, p := range c.Peers {
			if p.ID == "p7" && (p.Addr != "127.0.0.1:2" || p.Class != 3) {
				t.Errorf("refreshed p7 reads %s class %d, want the refreshed address and class", p.Addr, p.Class)
			}
		}
	}
}
