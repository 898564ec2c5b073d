package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/errs"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// TestSupplierCrashMidSession: one supplier dies while streaming; the
// requester surfaces an error, keeps a partial store, and does not become
// a supplying peer.
func TestSupplierCrashMidSession(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	c.seed("seed2", 1)
	req := c.requester("r", 1)

	// Crash seed1 25ms (virtual) into the session — the 2-supplier session
	// runs ~128ms of virtual time, so the crash deterministically lands
	// mid-stream.
	go func() {
		c.clk.Sleep(25 * time.Millisecond)
		s1.Close()
	}()
	_, err := req.Request(context.Background(), "")
	if err == nil {
		// Timing race: the session may have finished before the crash on a
		// very fast machine; treat completion as a skip rather than a fail.
		if req.Store().Complete() {
			t.Skip("session completed before the crash could land")
		}
		t.Fatal("expected an error after supplier crash")
	}
	if req.Supplying() {
		t.Error("peer must not supply after a failed session")
	}
	if req.Store().Complete() {
		t.Error("store should be incomplete after crash")
	}
}

// TestRequestUntilAdmittedSurvivesSupplierCrash: one of the two suppliers
// of a session crashes mid-stream — its host goes down, its directory
// registration stays behind — while a fresh seed joins. The session fails
// with a transport error; the retry loop waits one Backoff.Base, runs a
// fresh admission that routes around the dead registration, resumes the
// partial store and returns it complete and byte-exact.
func TestRequestUntilAdmittedSurvivesSupplierCrash(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	fresh, err := NewSeed(c.config("seed3", 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	req := c.requester("r", 1)

	// Each class-1 seed offers R0/2, so the first session is seed1 + seed2,
	// ~128ms of virtual time: a crash 25ms in lands mid-stream.
	joined := make(chan error, 1)
	go func() {
		c.clk.Sleep(25 * time.Millisecond)
		c.net.SetDown("seed1")
		joined <- fresh.Start(context.Background())
	}()
	report, err := req.RequestUntilAdmitted(context.Background(), "", 10)
	if jerr := <-joined; jerr != nil {
		t.Fatal(jerr)
	}
	if err != nil {
		t.Fatalf("RequestUntilAdmitted = %v, want a session from the survivors", err)
	}
	for _, s := range report.Suppliers {
		if s.ID == "seed1" {
			t.Error("the crashed supplier served the final session")
		}
	}
	// The crash cost one attempt that is not a rejection.
	if requests := req.Stats().Requests; requests < 2 || report.Rejections > requests-2 {
		t.Errorf("%d attempts, %d rejections: want a retry the crash caused, not counted as a rejection",
			requests, report.Rejections)
	}
	f := testFile()
	if !report.Store.Complete() || req.Store() != report.Store {
		t.Fatal("the node does not hold the complete store of the session")
	}
	for id := range media.SegmentID(f.Segments) {
		got, _ := report.Store.Get(id)
		if !bytes.Equal(got.Data, media.SegmentContent(f, id).Data) {
			t.Fatalf("segment %d is not the file's", id)
		}
	}
	if !req.Supplying() {
		t.Error("served requester does not supply")
	}
	// Neither the object it now holds nor one it does not know is retried.
	before := req.Stats().Requests
	for _, obj := range []string{"", "nope"} {
		if _, err := req.RequestUntilAdmitted(context.Background(), obj, 10); err == nil {
			t.Errorf("RequestUntilAdmitted(%q) accepted", obj)
		}
	}
	if got := req.Stats().Requests - before; got != 0 {
		t.Errorf("refused objects cost %d attempts", got)
	}
}

// TestRequestUntilAdmittedStopsWhenClosed: a node closed while its retry
// loop sleeps out a rejection backoff makes one more attempt, which finds
// the node closed, and returns ErrClosed instead of spending the rest of
// its budget.
func TestRequestUntilAdmittedStopsWhenClosed(t *testing.T) {
	c := newCluster(t)
	c.seed("onlyseed", 2) // offers R0/4: can never admit alone
	req := c.requester("r", 4)

	// The first attempt is rejected within a few link latencies; its
	// backoff is 20ms, so a close at 10ms lands inside it.
	closed := make(chan struct{})
	go func() {
		c.clk.Sleep(10 * time.Millisecond)
		req.Close()
		close(closed)
	}()
	start := c.clk.Now()
	_, err := req.RequestUntilAdmitted(context.Background(), "", 50)
	<-closed
	if !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if got := req.Stats().Requests; got != 2 {
		t.Errorf("%d attempts, want the rejected one and the one that found the node closed", got)
	}
	if elapsed := c.clk.Since(start); elapsed >= 40*time.Millisecond {
		t.Errorf("returned after %v of virtual time, past the second backoff", elapsed)
	}
}

// TestRequesterAbortCancelsSuppliers: when the requester hangs up
// mid-session, suppliers detect the broken pipe, end their sessions and
// return to idle, ready to serve again.
func TestRequesterAbortCancelsSuppliers(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	s2 := c.seed("seed2", 1)

	// Speak the protocol manually so we can abort mid-stream.
	trigger := func(n *Node, segs []int) *abortableSession {
		t.Helper()
		sess, err := c.dialStart(n.Addr(), transport.Start{
			RequesterID: "aborter", FileName: "video", Segments: segs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a := trigger(s1, []int{0, 2, 4, 6})
	b := trigger(s2, []int{1, 3, 5, 7})
	// Receive one segment from each, then hang up.
	if err := a.readOne(); err != nil {
		t.Fatal(err)
	}
	if err := b.readOne(); err != nil {
		t.Fatal(err)
	}
	a.close()
	b.close()

	// Both suppliers must become idle again (EndSession ran).
	deadline := c.clk.Now().Add(5 * time.Second)
	for {
		done1 := s1.Stats().Sessions
		done2 := s2.Stats().Sessions
		if done1 == 1 && done2 == 1 {
			break
		}
		if c.clk.Now().After(deadline) {
			t.Fatalf("suppliers never returned to idle (sessions done: %d, %d)", done1, done2)
		}
		c.clk.Sleep(5 * time.Millisecond)
	}
	// And they can serve a full session afterwards.
	req := c.requester("r2", 1)
	if _, err := req.RequestUntilAdmitted(context.Background(), "", 5); err != nil {
		t.Fatalf("suppliers unusable after aborted session: %v", err)
	}
}

// TestConcurrentRequesters: several class-1 requesters race for two seeds;
// with retries everyone is eventually served and every store is complete.
func TestConcurrentRequesters(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)

	const n = 3
	reqs := make([]*Node, n)
	for i := 0; i < n; i++ {
		reqs[i] = c.requester("r"+string(rune('0'+i)), 1)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = reqs[i].RequestUntilAdmitted(context.Background(), "", 30)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("requester %d: %v", i, err)
		}
		if !reqs[i].Store().Complete() {
			t.Errorf("requester %d store incomplete", i)
		}
		if !reqs[i].Supplying() {
			t.Errorf("requester %d not supplying", i)
		}
	}
}

// TestSupplierMissingSegment: a supplier asked for a segment it does not
// hold reports an error instead of streaming garbage, at full quality and
// after its ladder has stepped down alike, whether the segment is one the
// file has (9) or one past its end (16). The stepped-down rows ack each
// segment late, so the supplier's estimate reads a growing queue and its
// ladder steps down before it reaches the missing segment.
func TestSupplierMissingSegment(t *testing.T) {
	f := &media.File{Name: "video", Segments: 16, SegmentBytes: 256, SegmentTime: 4 * time.Millisecond}
	held := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15}
	for _, missing := range []int{9, 16} {
		for _, tc := range []struct {
			name string
			want []int         // the held segments asked for before missing
			lag  time.Duration // how late each segment is acked
		}{
			{"full-quality", held[:2], 0},
			{"stepped-down", held, 12 * time.Millisecond},
		} {
			t.Run(fmt.Sprintf("%s/segment-%d", tc.name, missing), func(t *testing.T) {
				c := newCluster(t)
				store, err := media.NewStore(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range held {
					if err := store.Put(media.SegmentContent(f, media.SegmentID(id))); err != nil {
						t.Fatal(err)
					}
				}
				partial := c.holder("partial", f, store, nil)
				sess, err := c.dialStart(partial.Addr(), transport.Start{
					RequesterID: "x", FileName: f.Name, Segments: append(slices.Clone(tc.want), missing),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sess.close()
				segs, err := sess.readAll(c.clk, tc.lag)
				if len(segs) != len(tc.want) {
					t.Fatalf("got %d segments before the end, want the %d held ones", len(segs), len(tc.want))
				}
				if last := segs[len(segs)-1].Quality; (last > 0) != (tc.lag > 0) {
					t.Fatalf("last held segment went out at q%d: the row does not test %s", last, tc.name)
				}
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("segment %d not held", missing)) {
					t.Errorf("err = %v, want 'segment %d not held'", err, missing)
				}
			})
		}
	}
}

// holder starts a supplier of f that holds exactly store: a requester node
// given the store and made supplying by hand, as if a session had filled
// it.
func (c *cluster) holder(id string, f *media.File, store *media.Store, obs observe.Observer) *Node {
	c.t.Helper()
	cfg := c.config(id, 1)
	cfg.File, cfg.Observer = f, obs
	n := c.start(NewRequester(cfg))
	if err := n.lib.Add(f, store); err != nil {
		c.t.Fatal(err)
	}
	if err := n.becomeSupplier(context.Background(), f.Name); err != nil {
		c.t.Fatal(err)
	}
	return n
}

// abortableSession is a hand-rolled requester side of one Start exchange.
type abortableSession struct {
	conn net.Conn
}

func (c *cluster) dialStart(addr string, start transport.Start) (*abortableSession, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	if err := transport.Write(conn, transport.KindStart, start); err != nil {
		conn.Close()
		return nil, err
	}
	var reply transport.StartReply
	if err := transport.ReadExpect(conn, transport.KindStartReply, &reply); err != nil {
		conn.Close()
		return nil, err
	}
	if !reply.OK {
		conn.Close()
		return nil, errors.New("start refused: " + reply.Reason)
	}
	return &abortableSession{conn: conn}, nil
}

// readOne reads the next segment frame, surfacing protocol errors.
func (s *abortableSession) readOne() error {
	env, err := transport.Read(s.conn)
	if err != nil {
		return err
	}
	if env.Kind != transport.KindSegment {
		return frameErr(env)
	}
	return nil
}

// frameErr is the error a session frame other than a segment surfaces as:
// an error frame's message, or the unexpected kind.
func frameErr(env *transport.Envelope) error {
	if env.Kind != transport.KindError {
		return errors.New("unexpected " + env.Kind.String())
	}
	var e transport.Error
	if err := env.Decode(&e); err != nil {
		return err
	}
	return errors.New(e.Message)
}

// readAll reads the session to its end as a requester on the feedback
// plane that acks each segment lag after reading it, falling behind the
// schedule when lag is longer than the supplier's send interval. It returns
// the segments read and nil at SessionDone, or the error frame's message.
func (s *abortableSession) readAll(clk clock.Clock, lag time.Duration) ([]transport.Segment, error) {
	var segs []transport.Segment
	acked := 0
	for {
		env, err := transport.Read(s.conn)
		if err != nil {
			return segs, err
		}
		switch env.Kind {
		case transport.KindSegment:
			var seg transport.Segment
			if err := env.Decode(&seg); err != nil {
				return segs, err
			}
			segs = append(segs, seg)
			clk.Sleep(lag)
			acked += len(seg.Data)
			if err := transport.Write(s.conn, transport.KindAck, transport.Ack{Seq: seg.ID, Bytes: acked}); err != nil {
				return segs, err
			}
		case transport.KindSessionDone:
			return segs, nil
		default:
			return segs, frameErr(env)
		}
	}
}

func (s *abortableSession) close() { s.conn.Close() }

// impatientNet is real TCP on which an accepted connection's deadline,
// whenever one is set, lies 150ms ahead: the endpoint's ten-second
// per-exchange deadline at test speed, reached through the public API.
type impatientNet struct{ netx.TCP }

func (impatientNet) Listen(addr string) (net.Listener, error) {
	l, err := netx.System.Listen(addr)
	return impatientListener{l}, err
}

type impatientListener struct{ net.Listener }

func (l impatientListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return impatientConn{conn}, nil
}

type impatientConn struct{ net.Conn }

func (c impatientConn) SetDeadline(t time.Time) error {
	if !t.IsZero() {
		t = time.Now().Add(150 * time.Millisecond)
	}
	return c.Conn.SetDeadline(t)
}

// TestSilentClientCutOff: a client that connects to a node and never
// writes is cut off by the per-exchange deadline alone — no Close — instead
// of pinning a handler goroutine and a descriptor for the node's lifetime;
// a start frame lifts the deadline, so a session twice as long as it still
// streams to the end. Loopback TCP: virtual connections ignore deadlines.
func TestSilentClientCutOff(t *testing.T) {
	srv := directory.NewServer(1)
	dirAddr, err := srv.Start(nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// Each class-1 seed sends 8 segments, one every 40ms: a 320ms session.
	file := &media.File{Name: "video", Segments: 16, SegmentBytes: 256, SegmentTime: 20 * time.Millisecond}
	start := func(n *Node, err error) *Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	cfg := func(id string) Config {
		return Config{
			ID: id, Class: 1, NumClasses: 4, Policy: dac.DAC, DirectoryAddr: dirAddr,
			File: file, M: 8, TOut: time.Second, Seed: 1, NoAdapt: true,
			Backoff: dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2},
			Network: impatientNet{},
		}
	}
	s1 := start(NewSeed(cfg("s1")))
	start(NewSeed(cfg("s2")))

	silent, err := net.Dial("tcp", s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The node must hang up on its own; the read unblocking proves it.
	silent.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("node kept the silent connection alive: read returned %v", err)
	}

	req := start(NewRequester(cfg("r")))
	report, err := req.RequestUntilAdmitted(context.Background(), "", 5)
	if err != nil {
		t.Fatalf("session under the per-exchange deadline: %v", err)
	}
	if !req.Store().Complete() || len(report.Suppliers) != 2 {
		t.Errorf("store complete = %v with %d suppliers, want a whole file from 2", req.Store().Complete(), len(report.Suppliers))
	}
}

// cutOffSupplier registers a fake class-1 supplier that grants every probe
// and accepts its Start, then sends one Segment frame, seg's, cut off after
// the first 64 bytes of its payload, and hangs up.
func (c *cluster) cutOffSupplier(id string, seg transport.Segment) {
	c.t.Helper()
	l, err := c.net.Host(id).Listen(":0")
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { l.Close() })
	frame, err := transport.Append(nil, transport.KindSegment, &seg)
	if err != nil {
		c.t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					env, err := transport.Read(conn)
					if err != nil {
						return
					}
					switch env.Kind {
					case transport.KindProbe:
						transport.Write(conn, transport.KindProbeReply, transport.ProbeReply{Decision: dac.Granted, Favors: true})
					case transport.KindStart:
						transport.Write(conn, transport.KindStartReply, transport.StartReply{OK: true})
						conn.Write(frame[:len(frame)-len(seg.Data)+64])
						return
					}
				}
			}(conn)
		}
	}()
	cl := directory.NewClientOn(c.net.Host("registrar-"+id), c.dirAddr)
	if err := cl.Register(context.Background(), transport.Register{ID: id, Addr: l.Addr().String(), Class: 1, Object: testFile().Name}); err != nil {
		c.t.Fatal(err)
	}
}

// TestSessionRefusesSegmentBeforeItsPayload: a segment out of range, or
// longer than a segment where the store already holds it (a retry's
// re-received segment), fails the session on its header: the error is the
// refusal, not the cut-off payload, of which the requester consumes
// nothing.
func TestSessionRefusesSegmentBeforeItsPayload(t *testing.T) {
	f := testFile()
	for _, tc := range []struct {
		name string
		seg  transport.Segment
		want string
	}{
		{"out of range", transport.Segment{ID: f.Segments, Data: make([]byte, f.SegmentBytes)}, "out of range"},
		{"held and too long", transport.Segment{ID: 0, Data: make([]byte, f.SegmentBytes+1)}, "more than"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			c.seed("seed1", 1)
			c.cutOffSupplier("liar", tc.seg)
			req := c.requester("r", 1)
			partial, err := media.NewStore(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := partial.Put(media.SegmentContent(f, 0)); err != nil {
				t.Fatal(err)
			}
			req.mu.Lock()
			req.pending[f.Name] = partial
			req.mu.Unlock()
			_, err = req.Request(context.Background(), "")
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, transport.ErrMalformedFrame) {
				t.Fatalf("Request = %v, want the refusal of the segment (%q)", err, tc.want)
			}
		})
	}
}
