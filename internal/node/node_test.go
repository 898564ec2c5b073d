package node

import (
	"bytes"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/transport"
)

// testFile is small and fast: 32 segments of 256 bytes, δt = 4ms. A class-1
// supplier sends one segment every 8ms; a full 2-supplier session takes
// ~128ms of virtual time — and far less wall time.
func testFile() *media.File {
	return &media.File{Name: "video", Segments: 32, SegmentBytes: 256, SegmentTime: 4 * time.Millisecond}
}

// cluster is a whole overlay — directory plus nodes — running over a
// virtual network under virtual time: deterministic, independent of
// wall-clock scheduling, and fast. Node IDs double as virtual host names.
type cluster struct {
	t       *testing.T
	clk     *clock.Virtual
	net     *netx.Virtual
	dirAddr string
	nodes   []*Node
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	clk := clock.NewVirtual()
	// Registered before the nodes' cleanups: the clock driver must outlive
	// every node (Close waits for goroutines sleeping on virtual time).
	t.Cleanup(clk.AutoRun())
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond})

	srv := directory.NewServer(1)
	l, err := vnet.Host("dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &cluster{t: t, clk: clk, net: vnet, dirAddr: l.Addr().String()}
}

func (c *cluster) config(id string, class bandwidth.Class) Config {
	return Config{
		ID:            id,
		Class:         class,
		NumClasses:    4,
		Policy:        dac.DAC,
		DirectoryAddr: c.dirAddr,
		File:          testFile(),
		M:             8,
		TOut:          50 * time.Millisecond,
		Backoff:       dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2},
		Seed:          int64(len(c.nodes) + 1),
		Clock:         c.clk,
		Network:       c.net.Host(id),
	}
}

func (c *cluster) start(n *Node, err error) *Node {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
	if err := n.Start(context.Background()); err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() { n.Close() })
	c.nodes = append(c.nodes, n)
	return n
}

func (c *cluster) seed(id string, class bandwidth.Class) *Node {
	c.t.Helper()
	return c.start(NewSeed(c.config(id, class)))
}

func (c *cluster) requester(id string, class bandwidth.Class) *Node {
	c.t.Helper()
	return c.start(NewRequester(c.config(id, class)))
}

// dial opens a raw protocol connection from an out-of-band tester host.
func (c *cluster) dial(addr string) (net.Conn, error) {
	return c.net.Host("tester").Dial(addr)
}

// TestEndToEndSession is the live-stack centerpiece: two class-1 seeds
// stream the full file to a requester; the requester verifies byte-exact
// content, continuous playback near the Theorem 1 delay, and becomes a
// supplying peer. Virtual time makes the timing assertions deterministic.
func TestEndToEndSession(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	req := c.requester("peer1", 1) // class 1: seeds favor it, grants are deterministic

	report, err := req.Request(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) != 2 {
		t.Fatalf("suppliers = %d, want 2", len(report.Suppliers))
	}
	if want := 2 * testFile().SegmentTime; report.TheoreticalDelay != want {
		t.Errorf("TheoreticalDelay = %v, want %v", report.TheoreticalDelay, want)
	}
	// Virtual-network latency allowance: measured delay within 2 extra slots.
	if max := report.TheoreticalDelay + 2*testFile().SegmentTime; report.MeasuredDelay > max {
		t.Errorf("MeasuredDelay = %v, want <= %v", report.MeasuredDelay, max)
	}
	if !report.Report.Continuous() {
		t.Errorf("playback stalled %d times (first at %d)", report.Report.Stalls, report.Report.FirstStall)
	}
	if want := int64(32 * 256); report.Bytes != want {
		t.Errorf("Bytes = %d, want %d", report.Bytes, want)
	}
	// Byte-exact content.
	f := testFile()
	for id := 0; id < f.Segments; id++ {
		got, ok := req.Store().Get(media.SegmentID(id))
		if !ok {
			t.Fatalf("segment %d missing", id)
		}
		want := media.SegmentContent(f, media.SegmentID(id))
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("segment %d corrupted", id)
		}
	}
	if !req.Supplying() {
		t.Error("requester should now be a supplying peer")
	}
	// Requesting again after holding the file is an error.
	if _, err := req.Request(context.Background(), ""); err == nil {
		t.Error("second Request should fail: file already held")
	}
}

// TestHeterogeneousSession uses the paper's Figure 1 supplier mix
// (classes 1, 2, 3, 3) and checks the n·δt delay bound end to end.
func TestHeterogeneousSession(t *testing.T) {
	c := newCluster(t)
	c.seed("s1", 1)
	c.seed("s2", 2)
	c.seed("s3", 3)
	c.seed("s4", 3)
	req := c.requester("r", 1)

	report, err := req.Request(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) != 4 {
		t.Fatalf("suppliers = %d, want 4 (aggregate exactly R0)", len(report.Suppliers))
	}
	if want := 4 * testFile().SegmentTime; report.TheoreticalDelay != want {
		t.Errorf("TheoreticalDelay = %v, want %v", report.TheoreticalDelay, want)
	}
	if !report.Report.Continuous() {
		t.Errorf("playback stalled %d times", report.Report.Stalls)
	}
	if !req.Store().Complete() {
		t.Error("store incomplete")
	}
}

// TestChainedGrowth: after peer1 is served it supplies peer2 — the
// self-growing property of the system.
func TestChainedGrowth(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)

	p1 := c.requester("p1", 1)
	if _, err := p1.Request(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	// Now three class-1 suppliers exist; p2 needs two of them.
	p2 := c.requester("p2", 1)
	report, err := p2.RequestUntilAdmitted(context.Background(), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Store().Complete() {
		t.Error("p2 store incomplete")
	}
	found := false
	for _, s := range report.Suppliers {
		if s.ID == "p1" {
			found = true
		}
	}
	_ = found // p1 may or may not be sampled; growth is shown by admission succeeding
}

// TestRejectionAndReminder: a class-4 requester probing a lone busy
// supplier is rejected and the busy supplier keeps a reminder only if it
// favors class 4.
func TestRejectionWhenInsufficientBandwidth(t *testing.T) {
	c := newCluster(t)
	c.seed("onlyseed", 2) // offers R0/4 < R0: can never admit alone
	req := c.requester("r", 4)
	_, err := req.Request(context.Background(), "")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if req.Supplying() {
		t.Error("rejected peer must not become a supplier")
	}
}

// TestRequestUntilAdmittedGivesUp: a requester that can never be admitted
// (the only supplier offers R0/4 < R0) spends its whole attempt budget and
// reports the final rejection; a budget of 0 is refused before any attempt.
func TestRequestUntilAdmittedGivesUp(t *testing.T) {
	c := newCluster(t)
	c.seed("onlyseed", 2)
	req := c.requester("r", 4)
	start := c.clk.Now()
	_, err := req.RequestUntilAdmitted(context.Background(), "", 3)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if got := req.Stats().Requests; got != 3 {
		t.Errorf("%d attempts, want the whole budget of 3", got)
	}
	// Backoff 20ms + 40ms of virtual time between the three attempts.
	if elapsed := c.clk.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("elapsed %v of virtual time, want >= 60ms of backoff", elapsed)
	}
	if _, err := req.RequestUntilAdmitted(context.Background(), "", 0); err == nil {
		t.Error("maxAttempts 0 should fail")
	}
	if got := req.Stats().Requests; got != 3 {
		t.Errorf("maxAttempts 0 made %d attempts", got-3)
	}
}

// lookupClock is a Discovery with an empty registry that records the
// virtual instant of every lookup: each attempt is rejected at once
// (ErrNoSuppliers) in zero virtual time, so the gaps between lookups are
// exactly the waits the retry loop slept.
type lookupClock struct {
	stubDiscovery
	clk *clock.Virtual
	at  []time.Duration
}

func (d *lookupClock) Candidates(context.Context, string, int, string) ([]transport.Candidate, error) {
	d.at = append(d.at, d.clk.Elapsed())
	return nil, nil
}

// TestRequestUntilAdmittedJitter: two nodes with the same seed and Jitter
// 0.5 sleep identical waits, each the schedule's After(i) scaled into
// [0.5, 1.5), and not all of them the unscaled value.
func TestRequestUntilAdmittedJitter(t *testing.T) {
	backoff := dac.BackoffConfig{Base: 10 * time.Millisecond, Factor: 2, Jitter: 0.5}
	const attempts = 8
	waits := func(id string) []time.Duration {
		clk := clock.NewVirtual()
		defer clk.AutoRun()()
		disc := &lookupClock{clk: clk}
		cfg := discCfg(disc, "")
		cfg.ID, cfg.Seed, cfg.Clock, cfg.Backoff = id, 7, clk, backoff
		n, err := NewRequester(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if _, err := n.RequestUntilAdmitted(context.Background(), "", attempts); !errors.Is(err, ErrNoSuppliers) {
			t.Fatalf("%s: err = %v, want ErrNoSuppliers", id, err)
		}
		if len(disc.at) != attempts {
			t.Fatalf("%s: %d lookups, want %d", id, len(disc.at), attempts)
		}
		out := make([]time.Duration, attempts-1)
		for i := range out {
			out[i] = disc.at[i+1] - disc.at[i]
		}
		return out
	}
	a, b := waits("a"), waits("b")
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different waits:\n  a: %v\n  b: %v", a, b)
	}
	scaled := false
	for i, got := range a {
		w, err := backoff.After(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		if got < w/2 || got >= w*3/2 {
			t.Errorf("wait %d = %v, want in [%v, %v)", i+1, got, w/2, w*3/2)
		}
		scaled = scaled || got != w
	}
	if !scaled {
		t.Errorf("waits %v are the unscaled schedule", a)
	}
}

// TestRequestUntilAdmittedEmptyRegistry: exhaustion reports what the last
// attempt hit. Nobody rejected this requester — there was nobody to ask.
func TestRequestUntilAdmittedEmptyRegistry(t *testing.T) {
	c := newCluster(t)
	req := c.requester("r", 1)
	_, err := req.RequestUntilAdmitted(context.Background(), "", 3)
	if !errors.Is(err, ErrNoSuppliers) || errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrNoSuppliers and not ErrRejected", err)
	}
}

// TestBusySupplierRefusesSecondSession: while seed1+seed2 stream to p1, a
// concurrent probe to them is denied-busy and a direct Start is refused.
func TestBusySupplierRefusesSecondSession(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	c.seed("seed2", 1)
	p1 := c.requester("p1", 1)

	done := make(chan error, 1)
	go func() {
		_, err := p1.Request(context.Background(), "")
		done <- err
	}()
	// Give the session a moment of virtual time to start, then hit seed1
	// with a Start. The session runs ~128ms of virtual time, so at 20ms it
	// is deterministically still busy.
	c.clk.Sleep(20 * time.Millisecond)
	conn, err := c.dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.Write(conn, transport.KindStart, transport.Start{
		RequesterID: "intruder", FileName: "video", Segments: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	var reply transport.StartReply
	if err := transport.ReadExpect(conn, transport.KindStartReply, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.OK {
		t.Error("busy supplier accepted a second session")
	}
	if err := <-done; err != nil {
		t.Fatalf("original session failed: %v", err)
	}
}

func TestStartUnknownFileRefused(t *testing.T) {
	c := newCluster(t)
	s := c.seed("seed", 1)
	conn, err := c.dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	transport.Write(conn, transport.KindStart, transport.Start{RequesterID: "x", FileName: "other", Segments: []int{0}})
	var reply transport.StartReply
	if err := transport.ReadExpect(conn, transport.KindStartReply, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.OK {
		t.Error("unknown file accepted")
	}
}

func TestProbeNonSupplierFails(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	r := c.requester("r", 1)
	conn, err := c.dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	transport.Write(conn, transport.KindProbe, transport.Probe{RequesterID: "x", Class: 1, Object: testFile().Name})
	err = transport.ReadExpect(conn, transport.KindProbeReply, nil)
	if err == nil || !strings.Contains(err.Error(), "not a supplying peer") {
		t.Errorf("err = %v", err)
	}
}

// TestOneFileTravelsByName: a one-File overlay is a catalog of one. The
// seeds and the requester they served all register under the file's name,
// and a frame naming no object names nothing a seed supplies.
func TestOneFileTravelsByName(t *testing.T) {
	c := newCluster(t)
	// A directory of the test's own, whose registries it can read.
	dir := directory.NewServer(1)
	l, err := c.net.Host("named-dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go dir.Serve(l)
	t.Cleanup(func() { dir.Close() })
	c.dirAddr = l.Addr().String()

	s := c.seed("seed1", 1)
	c.seed("seed2", 1)
	req := c.requester("peer1", 1)
	if _, err := req.Request(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	name := testFile().Name
	if got := dir.ObjectLen(name); got != 3 {
		t.Errorf("ObjectLen(%q) = %d, want both seeds and the served requester", name, got)
	}
	if got := dir.ObjectLen(""); got != 0 {
		t.Errorf(`ObjectLen("") = %d, want 0`, got)
	}

	conn, err := c.dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	err = transport.Exchange(context.Background(), conn, transport.KindProbe,
		transport.Probe{RequesterID: "x", Class: 1}, transport.KindProbeReply, nil)
	conn.Close()
	if err == nil || !strings.Contains(err.Error(), "not a supplying peer") {
		t.Errorf("probe naming no object: err = %v, want not a supplying peer", err)
	}
	// A reminder is kept only by a busy supplier: hold the seed in a session.
	all := make([]int, testFile().Segments)
	for i := range all {
		all[i] = i
	}
	sess, err := c.dialStart(s.Addr(), transport.Start{RequesterID: "y", FileName: name, Segments: all})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	for _, obj := range []string{"", name} {
		var reply transport.ReminderReply
		err := transport.Call(context.Background(), c.net.Host("tester"), s.Addr(), transport.KindReminder,
			transport.Reminder{RequesterID: "x", Class: 1, Object: obj}, transport.KindReminderOK, &reply)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kept != (obj == name) {
			t.Errorf("reminder naming %q: kept = %v", obj, reply.Kept)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	c := newCluster(t)
	base := c.config("x", 1)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no id", func(cfg *Config) { cfg.ID = "" }},
		{"bad class", func(cfg *Config) { cfg.Class = 9 }},
		{"no directory", func(cfg *Config) { cfg.DirectoryAddr = "" }},
		{"bad M", func(cfg *Config) { cfg.M = 0 }},
		{"bad TOut", func(cfg *Config) { cfg.TOut = 0 }},
		{"nil file", func(cfg *Config) { cfg.File = nil }},
		{"bad file", func(cfg *Config) { cfg.File = &media.File{} }},
		{"bad backoff", func(cfg *Config) { cfg.Backoff.Factor = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewSeed(cfg); err == nil {
				t.Error("NewSeed should fail")
			}
			if _, err := NewRequester(cfg); err == nil {
				t.Error("NewRequester should fail")
			}
		})
	}
}

func TestIdleElevationOverWire(t *testing.T) {
	c := newCluster(t)
	s := c.seed("seed", 1) // favors only class 1 initially
	// Probe as class 4 repeatedly: initially p = 1/8, but after enough
	// idle timeouts (TOut = 50ms of virtual time) the seed must favor
	// class 4 and grant deterministically.
	deadline := c.clk.Now().Add(5 * time.Second)
	for {
		if c.clk.Now().After(deadline) {
			t.Fatal("seed never relaxed to favoring class 4")
		}
		conn, err := c.dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		transport.Write(conn, transport.KindProbe, transport.Probe{RequesterID: "x", Class: 4, Object: testFile().Name})
		var reply transport.ProbeReply
		err = transport.ReadExpect(conn, transport.KindProbeReply, &reply)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Favors {
			if reply.Decision != dac.Granted {
				t.Errorf("favored probe denied: %v", reply.Decision)
			}
			return
		}
		c.clk.Sleep(20 * time.Millisecond)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCluster(t)
	s1 := c.seed("seed1", 1)
	c.seed("seed2", 1)
	req := c.requester("p", 1)
	if _, err := req.Request(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	st := s1.Stats()
	if st.Probes == 0 {
		t.Error("seed1 served no probes")
	}
	if st.Sessions != 1 {
		t.Errorf("seed1 sessions = %d, want 1", st.Sessions)
	}
}

// TestStatsSurviveEviction: the node's protocol counters are for its
// lifetime. x caches object a, supplies one session of it, then caches b —
// which evicts a and tears its supplier down; the probes and the session x
// served for a must still be in Stats.
func TestStatsSurviveEviction(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	a, b := testFile(), testFile()
	a.Name, b.Name = "a", "b"
	config := func(id string, held ...string) Config {
		cfg := c.config(id, 1)
		cfg.File, cfg.Objects, cfg.Held = nil, []*media.File{a, b}, held
		cfg.CacheBudget = a.TotalBytes() + b.TotalBytes()/2 // one object at a time
		return cfg
	}
	c.start(NewSeed(config("sa1", "a")))
	sa2 := c.start(NewSeed(config("sa2", "a")))
	c.start(NewSeed(config("sb1", "b")))
	c.start(NewSeed(config("sb2", "b")))
	x := c.start(NewRequester(config("x")))
	y := c.start(NewRequester(config("y")))

	if _, err := x.Request(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// With sa2 gone, y's session for a needs x's half of the rate.
	sa2.Close()
	if _, err := y.RequestUntilAdmitted(ctx, "a", 8); err != nil {
		t.Fatal(err)
	}
	before := x.Stats()
	if before.Sessions != 1 || before.Probes == 0 {
		t.Fatalf("x before eviction: %+v, want 1 session and some probes", before)
	}
	if _, err := x.Request(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if x.SupplyingObject("a") || !x.SupplyingObject("b") {
		t.Fatal("caching b should have evicted a")
	}
	if after := x.Stats(); after.Sessions < before.Sessions || after.Probes < before.Probes || after.Reminders < before.Reminders {
		t.Errorf("Stats ran backwards across the eviction: %+v -> %+v", before, after)
	}
}

// TestCachingFailureKeepsTheSession: a session that succeeds while every
// object the node caches is pinned cannot be cached — the request fails
// with the caching error, the node holds no store of the object at all, and
// the report still carries the complete store the session filled. The
// retry loop returns the same at once: the session was served.
func TestCachingFailureKeepsTheSession(t *testing.T) {
	c := newCluster(t)
	ctx := context.Background()
	a, b := testFile(), testFile()
	a.Name, b.Name = "a", "b"
	config := func(id string, budget int64) Config {
		cfg := c.config(id, 1)
		cfg.File, cfg.Objects, cfg.CacheBudget = nil, []*media.File{a, b}, budget
		return cfg
	}
	for _, id := range []string{"s1", "s2"} {
		c.start(NewSeed(config(id, 0)))
	}
	x := c.start(NewRequester(config("x", a.TotalBytes()))) // one object at a time
	if _, err := x.Request(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// What a session x supplies of a does for as long as it runs.
	x.Library().Acquire("a")
	defer x.Library().Release("a")

	report, err := x.Request(ctx, "b")
	if err == nil || !strings.Contains(err.Error(), "caching b") {
		t.Fatalf("Request(b) = %v, want the caching error", err)
	}
	if report == nil || report.Store == nil || !report.Store.Complete() {
		t.Fatalf("report %+v: want the complete store of the session", report)
	}
	if s := x.StoreOf("b"); s != nil {
		t.Errorf("x holds a store of b it could not cache: %d segments", s.Count())
	}
	for id := range media.SegmentID(b.Segments) {
		got, _ := report.Store.Get(id)
		if !bytes.Equal(got.Data, media.SegmentContent(b, id).Data) {
			t.Fatalf("segment %d of the report's store is not the file's", id)
		}
	}

	// The retry loop counts such a session as served: it returns the report
	// beside the caching error after its one attempt, retrying nothing.
	before := x.Stats().Requests
	report, err = x.RequestUntilAdmitted(ctx, "b", 3)
	if err == nil || !strings.Contains(err.Error(), "caching b") {
		t.Fatalf("RequestUntilAdmitted(b) = %v, want the caching error", err)
	}
	if report == nil || !report.Store.Complete() || report.Rejections != 0 {
		t.Fatalf("report %+v: want the complete store of a first-try session", report)
	}
	if got := x.Stats().Requests - before; got != 1 {
		t.Errorf("%d attempts for a served session, want 1", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := newCluster(t)
	s := c.seed("seed", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSupplierDownDuringLookup: a candidate that is unreachable is treated
// as down; admission succeeds with the remaining candidates.
func TestSupplierDownTreatedAsDown(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	c.seed("seed3", 1)
	// Crash the node's host: it stops answering, and its directory
	// registration stays behind.
	c.net.SetDown("seed3")

	req := c.requester("r", 1)
	report, err := req.RequestUntilAdmitted(context.Background(), "", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range report.Suppliers {
		if s.ID == "seed3" {
			t.Error("dead supplier participated")
		}
	}
}
