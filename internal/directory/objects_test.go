package directory

import (
	"context"
	"testing"

	"p2pstream/internal/transport"
)

// TestPerObjectRegistries: one peer registered under two named objects
// and under the empty name, an ordinary key, lives in three independent
// registries — lookups never cross object boundaries, and unregistering
// one object's entry leaves the others standing.
func TestPerObjectRegistries(t *testing.T) {
	ctx := context.Background()
	addr, srv := startServer(t)
	c := NewClient(addr)

	regs := []transport.Register{
		{ID: "p", Addr: "127.0.0.1:1", Class: 1},               // object ""
		{ID: "p", Addr: "127.0.0.1:1", Class: 1, Object: "v1"}, // same peer, object v1
		{ID: "p", Addr: "127.0.0.1:1", Class: 1, Object: "v2"}, // same peer, object v2
		{ID: "q", Addr: "127.0.0.1:2", Class: 2, Object: "v1"}, // second v1 supplier
	}
	for _, reg := range regs {
		if err := c.Register(ctx, reg); err != nil {
			t.Fatalf("register %+v: %v", reg, err)
		}
	}
	// Len weighs registry size: the same peer supplying two objects plus
	// the "" entry counts three times, q once.
	if got := srv.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 registrations across registries", got)
	}
	for object, want := range map[string]int{"": 1, "v1": 2, "v2": 1, "v3": 0} {
		if got := srv.ObjectLen(object); got != want {
			t.Errorf("ObjectLen(%q) = %d, want %d", object, got, want)
		}
	}

	// Candidates answer from one object's registry only.
	for object, want := range map[string]int{"": 1, "v1": 2, "v2": 1} {
		cands, err := c.Candidates(ctx, object, 10, "")
		if err != nil {
			t.Fatalf("candidates %q: %v", object, err)
		}
		if len(cands) != want {
			t.Errorf("Candidates(%q) returned %d peers, want %d", object, len(cands), want)
		}
	}
	// An object no one supplies has no candidates, not an error.
	if cands, err := c.Candidates(ctx, "v3", 10, ""); err != nil || len(cands) != 0 {
		t.Errorf("Candidates(v3) = %v, %v; want empty, nil", cands, err)
	}

	// Unregistering p from v1 scrubs only that registry.
	if err := c.Unregister(ctx, "p", "v1"); err != nil {
		t.Fatal(err)
	}
	if got := srv.ObjectLen("v1"); got != 1 {
		t.Errorf("ObjectLen(v1) after unregister = %d, want q alone", got)
	}
	if got := srv.ObjectLen("v2"); got != 1 {
		t.Errorf("ObjectLen(v2) = %d: unregistering v1 must not touch v2", got)
	}
	if got := srv.ObjectLen(""); got != 1 {
		t.Errorf("ObjectLen(\"\") = %d: unregistering v1 must not touch the \"\" registry", got)
	}
}

// TestRegisterBatchRoundTrip: one batched exchange registers a seed's
// whole object set across registries, and a failing entry mid-batch keeps
// the entries before it — the wire handler mirrors sequential sends.
func TestRegisterBatchRoundTrip(t *testing.T) {
	ctx := context.Background()
	addr, srv := startServer(t)
	c := NewClient(addr)

	err := c.RegisterBatch(ctx, []transport.Register{
		{ID: "s1", Addr: "127.0.0.1:1", Class: 1, Object: "a"},
		{ID: "s1", Addr: "127.0.0.1:1", Class: 1, Object: "b"},
		{ID: "s2", Addr: "127.0.0.1:2", Class: 1, Object: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.ObjectLen("a"); got != 2 {
		t.Errorf("ObjectLen(a) = %d, want 2 after the batch", got)
	}
	if got := srv.ObjectLen("b"); got != 1 {
		t.Errorf("ObjectLen(b) = %d, want 1 after the batch", got)
	}

	// An empty batch is a no-op, not a malformed frame.
	if err := c.RegisterBatch(ctx, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}

	// A bad entry aborts the batch at that entry; the good one before it
	// stays registered, exactly as if sent individually.
	err = c.RegisterBatch(ctx, []transport.Register{
		{ID: "s3", Addr: "127.0.0.1:3", Class: 1, Object: "b"},
		{ID: "", Addr: "", Class: 1, Object: "b"},
	})
	if err == nil {
		t.Error("batch with a malformed entry should fail")
	}
	if got := srv.ObjectLen("b"); got != 2 {
		t.Errorf("ObjectLen(b) = %d, want 2: entries before the failure stay registered", got)
	}
}
