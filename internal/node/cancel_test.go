package node

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/directory"
	"p2pstream/internal/transport"
)

// blackholeSupplier registers a fake supplying peer in the directory whose
// listener accepts connections and reads requests but never replies — the
// deterministic way to park a requester mid-probe forever.
func (c *cluster) blackholeSupplier(id string, class bandwidth.Class) {
	c.t.Helper()
	l, err := c.net.Host(id).Listen(":0")
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				// Read the probe and then sit on the connection silently.
				transport.Read(conn)
			}(conn)
		}
	}()
	cl := directory.NewClientOn(c.net.Host("registrar-"+id), c.dirAddr)
	if err := cl.Register(context.Background(), transport.Register{ID: id, Addr: l.Addr().String(), Class: class, Object: testFile().Name}); err != nil {
		c.t.Fatal(err)
	}
}

// TestCancelMidProbe: the only candidates never answer probes, so the
// requester is parked mid-probe; a cancel scheduled on the virtual clock
// frees it within one clock step, returning context.Canceled, and no
// supplier slot is held anywhere.
func TestCancelMidProbe(t *testing.T) {
	c := newCluster(t)
	c.blackholeSupplier("hole1", 1)
	c.blackholeSupplier("hole2", 1)
	req := c.requester("r", 1)

	const cancelAt = 30 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.clk.AfterFunc(cancelAt, cancel)

	start := c.clk.Now()
	_, err := req.Request(ctx, "")
	elapsed := c.clk.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Without the cancel the probe blocks forever; with it, the attempt
	// unwinds at the cancel instant — within one clock step of virtual
	// time, not after some wall timeout.
	if elapsed < cancelAt || elapsed > cancelAt+5*time.Millisecond {
		t.Errorf("request returned after %v of virtual time, want ~%v (one clock step)", elapsed, cancelAt)
	}
	if req.Supplying() {
		t.Error("cancelled requester must not supply")
	}
}

// TestDeadlineMidProbe: same setup, but the bound is a deadline derived on
// the virtual clock (clock.ContextWithTimeout); expiry surfaces as
// context.DeadlineExceeded deterministically.
func TestDeadlineMidProbe(t *testing.T) {
	c := newCluster(t)
	// Two class-1 holes: a lone class-1 candidate cannot reach R0, and the
	// sweep rejects without probing at all — the deadline needs an attempt
	// that actually parks inside a probe.
	c.blackholeSupplier("hole1", 1)
	c.blackholeSupplier("hole2", 1)
	req := c.requester("r", 1)

	const budget = 25 * time.Millisecond
	ctx, cancel := clock.ContextWithTimeout(context.Background(), c.clk, budget)
	defer cancel()

	start := c.clk.Now()
	_, err := req.Request(ctx, "")
	elapsed := c.clk.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed < budget || elapsed > budget+5*time.Millisecond {
		t.Errorf("request returned after %v of virtual time, want ~%v", elapsed, budget)
	}
}

// TestCancelMidSession: the cancel lands while the multi-supplier session
// is streaming. The requester returns context.Canceled, the suppliers see
// the hangup, run EndSession and return to idle — a fresh requester is
// served by the very same suppliers afterwards (no leaked busy slots).
func TestCancelMidSession(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	s2 := c.seed("seed2", 1)
	req := c.requester("r", 1)

	// The 2-supplier session runs ~128ms of virtual time; 40ms is
	// deterministically mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.clk.AfterFunc(40*time.Millisecond, cancel)

	_, err := req.Request(ctx, "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if req.Supplying() || req.Store().Complete() {
		t.Error("cancelled mid-session: node must hold a partial store and not supply")
	}
	// Both suppliers must release their session slots (EndSession ran).
	deadline := c.clk.Now().Add(5 * time.Second)
	for s1.Stats().Sessions != 1 || s2.Stats().Sessions != 1 {
		if c.clk.Now().After(deadline) {
			t.Fatalf("suppliers never released their slots (sessions: %d, %d)",
				s1.Stats().Sessions, s2.Stats().Sessions)
		}
		c.clk.Sleep(5 * time.Millisecond)
	}
	// And they serve a full session for a fresh requester.
	r2 := c.requester("r2", 1)
	if _, err := r2.RequestUntilAdmitted(context.Background(), "", 5); err != nil {
		t.Fatalf("suppliers unusable after cancelled session: %v", err)
	}
}

// TestCancelBetweenAdmissionAndSessionStart: the satellite edge — a ctx
// cancelled after the admission sweep granted but before any supplier was
// triggered must abort without claiming (or leaking) a single supplier
// slot: no Start is sent, no supplier goes busy, no session is counted,
// and the requester is not elevated to protocol.Supplier.
func TestCancelBetweenAdmissionAndSessionStart(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	s2 := c.seed("seed2", 1)
	req := c.requester("r", 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.testHookAdmitted = cancel // lands exactly in the admission-to-start gap

	start := c.clk.Now()
	_, err := req.Request(ctx, "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The unwind is immediate: no session was started, so no virtual time
	// beyond the probe exchanges may pass.
	if elapsed := c.clk.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("gap cancel took %v of virtual time, want the probe round only", elapsed)
	}
	if req.Supplying() {
		t.Error("cancelled requester elevated to supplier")
	}
	for _, s := range []*Node{s1, s2} {
		st := s.Stats()
		if st.Sessions != 0 {
			t.Errorf("%s counted %d sessions after a cancelled-in-gap request", s.ID(), st.Sessions)
		}
		if s.supplier(s.primary).Busy() {
			t.Errorf("%s left busy: supplier slot leaked", s.ID())
		}
	}
	// Both grants had kept their lines; the cancel hung them up.
	c.waitIdle(s1, s2)
	// The slots are free this very instant: a fresh requester with a live
	// context is admitted by the same suppliers within one clock step.
	r2 := c.requester("r2", 1)
	if _, err := r2.Request(context.Background(), ""); err != nil {
		t.Fatalf("suppliers not reusable right after gap cancel: %v", err)
	}
}

// TestCancelMidBackoff: RequestUntilAdmitted sleeping out its rejection
// backoff on the virtual clock aborts the wait the moment the context is
// cancelled.
func TestCancelMidBackoff(t *testing.T) {
	c := newCluster(t)
	c.seed("onlyseed", 2) // offers R0/4: can never admit alone
	req := c.requester("r", 4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// First attempt rejects quickly; backoff is 20ms. Cancel at 5ms lands
	// either in the first attempt or the first backoff; both must abort.
	c.clk.AfterFunc(5*time.Millisecond, cancel)
	_, err := req.RequestUntilAdmitted(ctx, "", 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelLeaksNoGoroutines: a cancelled request's transient goroutines
// (context-guard watchers, dial watchers, session receivers) all exit.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	req := c.requester("r", 1)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	c.clk.AfterFunc(40*time.Millisecond, cancel)
	if _, err := req.Request(ctx, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
	// The transient goroutines unwind asynchronously; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d, baseline %d — cancelled requests leaked", runtime.NumGoroutine(), baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
