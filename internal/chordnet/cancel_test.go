package chordnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/netx"
)

// TestCancelMidLookup: a key lookup parked on a slow link unwinds the
// moment its context is cancelled — within one step of the virtual clock —
// returning context.Canceled instead of blocking for the link delay.
func TestCancelMidLookup(t *testing.T) {
	f := newTimedFixture(t)
	f.addMember("s0", 1)
	f.addMember("s1", 1)
	f.waitFor(func() bool { return ringHealthy(f.peers, []string{"s0", "s1"}) }, "2-member ring")

	// The requester's access link is 100ms each way: any lookup RPC it
	// issues is parked an order of magnitude past the cancel instant.
	r := f.newPeer("r", 1)
	f.vnet.SetLink("r", "s0", netx.LinkConfig{Latency: 100 * time.Millisecond})
	f.vnet.SetLink("r", "s1", netx.LinkConfig{Latency: 100 * time.Millisecond})

	const cancelAt = 10 * time.Millisecond
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.clk.AfterFunc(cancelAt, cancel)

	start := f.clk.Now()
	_, err := r.LookupKey(cctx, 12345)
	elapsed := f.clk.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed < cancelAt || elapsed > cancelAt+5*time.Millisecond {
		t.Errorf("lookup returned after %v of virtual time, want ~%v (one clock step)", elapsed, cancelAt)
	}
}

// TestDeadlineMidLookup: the same park, bounded by a virtual-clock
// deadline; expiry surfaces as context.DeadlineExceeded.
func TestDeadlineMidLookup(t *testing.T) {
	f := newTimedFixture(t)
	f.addMember("s0", 1)
	f.waitFor(func() bool { return f.peers["s0"].Joined() }, "singleton ring")

	r := f.newPeer("r", 1)
	f.vnet.SetLink("r", "s0", netx.LinkConfig{Latency: 100 * time.Millisecond})

	const budget = 15 * time.Millisecond
	cctx, cancel := clock.ContextWithTimeout(ctx, f.clk, budget)
	defer cancel()

	start := f.clk.Now()
	_, err := r.LookupKey(cctx, 99)
	elapsed := f.clk.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed < budget || elapsed > budget+5*time.Millisecond {
		t.Errorf("lookup returned after %v of virtual time, want ~%v", elapsed, budget)
	}
}

// TestCancelMidCandidates: cancellation lands while Candidates has its
// batched random-key lookups in flight; the sample aborts with
// context.Canceled instead of waiting out the parked round.
func TestCancelMidCandidates(t *testing.T) {
	f := newFixture(t)
	f.addMember("s0", 1)
	f.addMember("s1", 1)
	f.waitFor(func() bool { return ringHealthy(f.peers, []string{"s0", "s1"}) }, "2-member ring")

	r := f.newPeer("r", 1)
	f.vnet.SetLink("r", "s0", netx.LinkConfig{Latency: 100 * time.Millisecond})
	f.vnet.SetLink("r", "s1", netx.LinkConfig{Latency: 100 * time.Millisecond})

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.clk.AfterFunc(10*time.Millisecond, cancel)
	if _, err := r.Candidates(cctx, "", 4, "r"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
