package node

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// A grant keeps the line: the connection a probe was granted on carries the
// supplier's Start and then the session. These tests pin the dial budget
// that buys and every seam it creates.

// warmRequester starts a requester whose directory connection is already
// open, so the virtual network's dial counter moves only for the peer
// connections of the request under test.
func (c *cluster) warmRequester(cfg Config) *Node {
	c.t.Helper()
	cl := directory.NewClientOn(cfg.Network, c.dirAddr)
	if _, err := cl.Candidates(context.Background(), "", 1, cfg.ID); err != nil {
		c.t.Fatal(err)
	}
	cfg.Discovery = cl
	return c.start(NewRequester(cfg))
}

// served sums the probes and reminders the nodes have answered.
func served(nodes ...*Node) (probes, reminders int) {
	for _, n := range nodes {
		st := n.Stats()
		probes += st.Probes
		reminders += st.Reminders
	}
	return probes, reminders
}

// waitIdle waits, in virtual time, until no peer connection is tracked on
// any of the nodes: every line held on them was hung up and its handler
// has gone.
func (c *cluster) waitIdle(nodes ...*Node) {
	c.t.Helper()
	deadline := c.clk.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for n.ep.Tracked() != 0 {
			if c.clk.Now().After(deadline) {
				c.t.Fatalf("%s still tracks %d peer connections: a held line was never hung up", n.ID(), n.ep.Tracked())
			}
			c.clk.Sleep(time.Millisecond)
		}
	}
}

// TestHeldLineDialBudget: an admitted request opens exactly one peer
// connection per candidate it probed — the triggers and the session ride
// the probe connections — and a rejected one exactly one per probe and one
// per reminder, under both policies and both wire modes.
func TestHeldLineDialBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy dac.Policy
		multi  bool
		kept   int // of the three reminders left: only DAC suppliers keep them
	}{
		{"DAC/single-object", dac.DAC, false, 3},
		{"DAC/multi-object", dac.DAC, true, 3},
		{"NDAC/single-object", dac.NDAC, false, 0},
		{"NDAC/multi-object", dac.NDAC, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			var tally observe.Tally
			object := ""
			config := func(id string, class bandwidth.Class) Config {
				cfg := c.config(id, class)
				cfg.Policy, cfg.Observer = tc.policy, &tally
				if tc.multi {
					other := testFile()
					other.Name = "other"
					cfg.File, cfg.Objects = nil, []*media.File{testFile(), other}
					object = "video"
				}
				return cfg
			}
			seeds := []*Node{
				c.start(NewSeed(config("s1", 1))),
				c.start(NewSeed(config("s2", 2))),
				c.start(NewSeed(config("s3", 2))),
			}
			admitted := c.warmRequester(config("r1", 1))
			rejected := c.warmRequester(config("r2", 1))

			dials := c.net.Dials()
			done := make(chan error, 1)
			go func() {
				report, err := admitted.Request(context.Background(), object)
				if err == nil && len(report.Suppliers) != 3 {
					err = errors.New("session did not use all three seeds")
				}
				done <- err
			}()
			// The three-supplier session runs for ~128ms of virtual time: at
			// 20ms the sweep is long over and every seed is busy streaming.
			c.clk.Sleep(20 * time.Millisecond)
			probes, _ := served(seeds...)
			if got := c.net.Dials() - dials; probes != 3 || got != 3 {
				t.Errorf("admitted request: %d peer connections for %d candidates probed, want 3 for 3", got, probes)
			}

			dials = c.net.Dials()
			if _, err := rejected.Request(context.Background(), object); !errors.Is(err, ErrRejected) {
				t.Fatalf("request against busy seeds: err = %v, want ErrRejected", err)
			}
			// Every busy seed favors class 1, so the sweep probes all three
			// and leaves a reminder on each.
			probes2, kept := served(seeds...)
			if probes2-probes != 3 || kept != tc.kept {
				t.Fatalf("rejected request: %d probes served and %d reminders kept, want 3 and %d", probes2-probes, kept, tc.kept)
			}
			if got := c.net.Dials() - dials; got != 6 {
				t.Errorf("rejected request: %d peer connections, want 3 probes + 3 reminders", got)
			}

			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := tally.Snapshot().Of(observe.TriggerDial).N; n != 0 {
				t.Errorf("%d triggers dialed on a fault-free overlay, want 0", n)
			}
			c.waitIdle(seeds...)
		})
	}
}

// probeFor speaks the requester's half of one probe on conn.
func probeFor(conn net.Conn, id string) (transport.ProbeReply, error) {
	var reply transport.ProbeReply
	err := transport.Exchange(context.Background(), conn, transport.KindProbe,
		transport.Probe{RequesterID: id, Class: 1, Object: testFile().Name}, transport.KindProbeReply, &reply)
	return reply, err
}

// grantedLine dials n from the tester host and takes a grant on the line.
func (c *cluster) grantedLine(n *Node) net.Conn {
	c.t.Helper()
	conn, err := c.dial(n.Addr())
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { conn.Close() })
	if reply, err := probeFor(conn, "tester"); err != nil || reply.Decision != dac.Granted {
		c.t.Fatalf("probe: %+v, %v; want a grant", reply, err)
	}
	return conn
}

// TestHeldLineSilentHolderCutOff: a requester that takes a grant and then
// says nothing is cut off by the re-armed exchange deadline alone, and the
// supplier's handler goes with it. Loopback TCP: virtual connections ignore
// deadlines.
func TestHeldLineSilentHolderCutOff(t *testing.T) {
	srv := directory.NewServer(1)
	dirAddr, err := srv.Start(nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s, err := NewSeed(Config{
		ID: "s1", Class: 1, NumClasses: 4, Policy: dac.DAC, DirectoryAddr: dirAddr,
		File: testFile(), M: 8, TOut: time.Second, Seed: 1,
		Backoff: dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2},
		Network: impatientNet{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	holder, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if reply, err := probeFor(holder, "silent"); err != nil || reply.Decision != dac.Granted {
		t.Fatalf("probe: %+v, %v; want a grant", reply, err)
	}
	if s.ep.Tracked() != 1 {
		t.Fatalf("supplier tracks %d connections after a grant, want the held line", s.ep.Tracked())
	}
	// The supplier must hang up on its own; the read unblocking proves it.
	holder.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := holder.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("supplier kept the silent holder's line: read returned %v", err)
	}
	for deadline := time.Now().Add(3 * time.Second); s.ep.Tracked() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("supplier still tracks %d connections after cutting the holder off", s.ep.Tracked())
		}
	}
	if s.supplier(s.primary).Busy() {
		t.Error("a held line claimed the supplier's slot")
	}
}

// droppingNet records the connections its listeners accept, so a test can
// hang up the supplier's end of a held line the way a restart or a passed
// deadline would.
type droppingNet struct {
	netx.Network
	mu       sync.Mutex
	accepted []net.Conn
}

func (d *droppingNet) Listen(addr string) (net.Listener, error) {
	l, err := d.Network.Listen(addr)
	return droppingListener{l, d}, err
}

func (d *droppingNet) dropAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, conn := range d.accepted {
		conn.Close()
	}
	d.accepted = nil
}

type droppingListener struct {
	net.Listener
	d *droppingNet
}

func (l droppingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.d.mu.Lock()
		l.d.accepted = append(l.d.accepted, conn)
		l.d.mu.Unlock()
	}
	return conn, err
}

// TestHeldLineDeadFallsBackToDial: both suppliers drop the held lines
// between the sweep and the trigger. Each trigger finds its line dead, dials
// once, and the session completes byte-exact over the fresh connections.
func TestHeldLineDeadFallsBackToDial(t *testing.T) {
	c := newCluster(t)
	var tally observe.Tally
	var drops []*droppingNet
	for _, id := range []string{"seed1", "seed2"} {
		cfg := c.config(id, 1)
		d := &droppingNet{Network: cfg.Network}
		cfg.Network = d
		drops = append(drops, d)
		c.start(NewSeed(cfg))
	}
	cfg := c.config("r", 1)
	cfg.Observer = &tally
	req := c.warmRequester(cfg)
	req.testHookAdmitted = func() {
		for _, d := range drops {
			d.dropAll()
		}
	}

	dials := c.net.Dials()
	report, err := req.Request(context.Background(), "")
	if err != nil {
		t.Fatalf("request over dropped lines: %v", err)
	}
	if got := tally.Snapshot().Of(observe.TriggerDial).N; got != 2 {
		t.Errorf("%d trigger-dial events, want one per dropped line", got)
	}
	if got := c.net.Dials() - dials; got != 4 {
		t.Errorf("%d peer connections, want 2 probes + 2 fallback dials", got)
	}
	f := testFile()
	if report.Bytes != f.TotalBytes() || !req.Store().Complete() {
		t.Fatalf("received %d bytes, store complete = %v", report.Bytes, req.Store().Complete())
	}
	for id := 0; id < f.Segments; id++ {
		got, _ := req.Store().Get(media.SegmentID(id))
		if want := media.SegmentContent(f, media.SegmentID(id)); !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d differs after the fallback", id)
		}
	}
}

// TestHeldLineRefusedAfterGrant: both seeds grant, then another requester
// claims one of them before our Start. The refusal arrives on the held line
// and surfaces ErrRejected — it is an answer, not a dead line, so nothing is
// dialed — every other line is hung up, and no slot stays claimed, whichever
// of the two the assignment triggers first.
func TestHeldLineRefusedAfterGrant(t *testing.T) {
	for claimed := 0; claimed < 2; claimed++ {
		c := newCluster(t)
		var tally observe.Tally
		seeds := []*Node{c.seed("seed1", 1), c.seed("seed2", 1)}
		cfg := c.config("r", 1)
		cfg.Observer = &tally
		req := c.warmRequester(cfg)
		var intruder *abortableSession
		req.testHookAdmitted = func() {
			var err error
			intruder, err = c.dialStart(seeds[claimed].Addr(), transport.Start{
				RequesterID: "intruder", FileName: "video", Segments: []int{0, 1, 2, 3},
			})
			if err != nil {
				t.Errorf("intruder: %v", err)
			}
		}

		dials := c.net.Dials()
		_, err := req.Request(context.Background(), "")
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("seed %d claimed: err = %v, want ErrRejected", claimed, err)
		}
		// Two probes and the intruder's own connection.
		if got := c.net.Dials() - dials; got != 3 {
			t.Errorf("seed %d claimed: %d connections opened, want 3", claimed, got)
		}
		if n := tally.Snapshot().Of(observe.TriggerDial).N; n != 0 {
			t.Errorf("seed %d claimed: a refusal on the held line was answered with %d dials", claimed, n)
		}
		if intruder == nil {
			t.FailNow()
		}
		intruder.close()
		c.waitIdle(seeds...)
		for _, s := range seeds {
			if s.supplier(s.primary).Busy() {
				t.Errorf("seed %d claimed: %s left busy", claimed, s.ID())
			}
		}
	}
}

// TestHeldLineCancelMidSweep: two class-2 seeds have granted when the sweep
// parks on a candidate that never answers. With R0 still reachable both
// lines are held then, and the cancel hangs them up: the suppliers see EOF,
// were never triggered and claimed nothing. With R0 out of reach from the
// start no line is held at all — the sweep goes on only to place reminders,
// and no supplier waits for a Start that cannot come.
func TestHeldLineCancelMidSweep(t *testing.T) {
	for _, tc := range []struct {
		name     string
		holes    int // class-3 candidates that never answer: 1/8 of R0 each
		wantHeld int
	}{
		{"R0 reachable", 4, 2},
		{"doomed", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			seeds := []*Node{c.seed("seed1", 2), c.seed("seed2", 2)}
			for i := 0; i < tc.holes; i++ {
				c.blackholeSupplier("hole"+string(rune('1'+i)), 3)
			}
			req := c.requester("r", 1)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			held := make(chan int, 1)
			c.clk.AfterFunc(30*time.Millisecond, func() {
				held <- seeds[0].ep.Tracked() + seeds[1].ep.Tracked()
				cancel()
			})
			if _, err := req.Request(ctx, ""); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if probes, _ := served(seeds...); probes != 2 {
				t.Fatalf("%d probes served, want both seeds granted before the sweep parked", probes)
			}
			if got := <-held; got != tc.wantHeld {
				t.Errorf("%d lines held on the seeds while the sweep was parked, want %d", got, tc.wantHeld)
			}
			c.waitIdle(seeds...)
			for _, s := range seeds {
				if st := s.Stats(); st.Sessions != 0 || s.supplier(s.primary).Busy() {
					t.Errorf("%s: %d sessions, busy = %v after a cancelled sweep", s.ID(), st.Sessions, s.supplier(s.primary).Busy())
				}
			}
		})
	}
}

// TestHeldLineTakesOnlyAStart: after a grant the line carries one more
// frame, and it must be a Start. Anything else — a second probe here — is
// answered with an error and a hangup: a connection is not an open-ended
// exchange loop.
func TestHeldLineTakesOnlyAStart(t *testing.T) {
	c := newCluster(t)
	s := c.seed("seed1", 1)
	conn := c.grantedLine(s)
	_, err := probeFor(conn, "tester")
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Message, "unexpected probe") {
		t.Fatalf("second probe on a held line: err = %v, want the supplier's refusal", err)
	}
	if _, err := transport.Read(conn); !errors.Is(err, io.EOF) {
		t.Errorf("after the refusal: read returned %v, want EOF", err)
	}
	c.waitIdle(s)
}

// TestHeldLineCloseReturns: Node.Close does not wait for the requesters
// holding lines on it — no deadline ends a virtual connection, so a Close
// that did not hang them up would never return.
func TestHeldLineCloseReturns(t *testing.T) {
	c := newCluster(t)
	s := c.seed("seed1", 1)
	a, b := c.grantedLine(s), c.grantedLine(s)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close is waiting for the held lines")
	}
	for _, conn := range []net.Conn{a, b} {
		if _, err := transport.Read(conn); err == nil {
			t.Error("a held line outlived its supplier")
		}
	}
}
