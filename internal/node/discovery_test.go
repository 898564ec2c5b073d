package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// stubDiscovery is a Discovery that returns a canned candidate set.
type stubDiscovery struct {
	registered atomic.Int64
	closed     atomic.Int64
}

func (s *stubDiscovery) Register(context.Context, transport.Register) error {
	s.registered.Add(1)
	return nil
}
func (s *stubDiscovery) Unregister(context.Context, string, string) error { return nil }
func (s *stubDiscovery) Candidates(context.Context, string, int, string) ([]transport.Candidate, error) {
	return nil, nil
}
func (s *stubDiscovery) Close() error { s.closed.Add(1); return nil }

func discCfg(disc Discovery, dirAddr string) Config {
	return Config{
		ID: "n", Class: 1, NumClasses: 4, Policy: dac.DAC,
		Discovery: disc, DirectoryAddr: dirAddr,
		File:    &media.File{Name: "v", Segments: 4, SegmentBytes: 16, SegmentTime: time.Millisecond},
		M:       4,
		TOut:    time.Second,
		Backoff: dac.BackoffConfig{Base: time.Millisecond, Factor: 2},
	}
}

// TestDiscoveryReplacesDirectoryAddr: an injected Discovery makes
// DirectoryAddr optional, is used for registration, and is owned (closed)
// by the node.
func TestDiscoveryReplacesDirectoryAddr(t *testing.T) {
	if _, err := NewRequester(discCfg(nil, "")); err == nil {
		t.Error("neither Discovery nor DirectoryAddr accepted")
	}
	disc := &stubDiscovery{}
	n, err := NewSeed(discCfg(disc, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if disc.registered.Load() != 1 {
		t.Errorf("seed registered %d times through its Discovery, want 1", disc.registered.Load())
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if disc.closed.Load() != 1 {
		t.Errorf("Close closed the Discovery %d times, want 1", disc.closed.Load())
	}
}

// registerFailDiscovery delegates to a real discovery backend but fails
// every Register — the world a peer sees when its own registry shard is
// down right as it finishes a session.
type registerFailDiscovery struct {
	Discovery
}

func (d *registerFailDiscovery) Register(context.Context, transport.Register) error {
	return errors.New("owner shard down")
}

// TestRequestUntilAdmittedServedWithoutRegistration: a session that
// completes with only the post-session registration failing must surface
// its report alongside the error — the node holds the file and supplies
// locally (a sharded client's lease re-registers it later), and dropping
// the report would make the caller discard a served session.
func TestRequestUntilAdmittedServedWithoutRegistration(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	cfg := c.config("peer1", 1)
	cfg.Discovery = &registerFailDiscovery{
		Discovery: directory.NewClientOn(c.net.Host("peer1"), c.dirAddr),
	}
	req := c.start(NewRequester(cfg))

	report, err := req.RequestUntilAdmitted(context.Background(), "", 5)
	if err == nil {
		t.Fatal("registration failure vanished")
	}
	if report == nil {
		t.Fatal("served session's report discarded because registration failed")
	}
	if len(report.Suppliers) != 2 {
		t.Errorf("suppliers = %d, want 2", len(report.Suppliers))
	}
	if !req.Store().Complete() {
		t.Error("store incomplete after a served session")
	}
	if !req.Supplying() {
		t.Error("node should supply locally while its registration is pending")
	}
}

// flakyLookupDiscovery fails the lookups its script marks and answers the
// others with an empty sample, logging the virtual instant of every one.
type flakyLookupDiscovery struct {
	stubDiscovery
	clk  clock.Clock
	fail []bool // by lookup; past its end every lookup fails
	at   []time.Time
}

func (d *flakyLookupDiscovery) Candidates(context.Context, string, int, string) ([]transport.Candidate, error) {
	i := len(d.at)
	d.at = append(d.at, d.clk.Now())
	if i < len(d.fail) && !d.fail[i] {
		return nil, nil
	}
	return nil, errors.New("directory unreachable")
}

// TestFailedLookupsBackOff: the k-th failure in a row that is not a
// rejection waits Backoff.After(k), and an answered attempt — here an empty
// sample, a rejection with its own schedule — starts the count over.
func TestFailedLookupsBackOff(t *testing.T) {
	clk := clock.NewVirtual()
	t.Cleanup(clk.AutoRun())
	disc := &flakyLookupDiscovery{clk: clk, fail: []bool{true, true, true, false, true, true}}
	cfg := discCfg(disc, "")
	cfg.Clock = clk
	n, err := NewRequester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.RequestUntilAdmitted(context.Background(), "", 6); err == nil {
		t.Fatal("a requester with no reachable discovery was served")
	}
	base := cfg.Backoff.Base
	want := []time.Duration{base, 2 * base, 4 * base, base, base}
	var got []time.Duration
	for i := 1; i < len(disc.at); i++ {
		got = append(got, disc.at[i].Sub(disc.at[i-1]))
	}
	if !slices.Equal(got, want) {
		t.Errorf("waits between lookups = %v, want %v", got, want)
	}
}

// TestReplyWriteErrorHook: a peer that hangs up while the node's reply is
// in flight must surface through the write-failure counter and hook
// instead of silently passing for success.
func TestReplyWriteErrorHook(t *testing.T) {
	var hooked atomic.Int64
	cfg := discCfg(&stubDiscovery{}, "")
	cfg.Observer = observe.Func(func(ev observe.Event) {
		if ev.Type != observe.WriteError {
			return
		}
		if ev.Wire != transport.KindError.String() || ev.Err == nil {
			t.Errorf("observer got wire=%s err=%v", ev.Wire, ev.Err)
		}
		hooked.Add(1)
	})
	n, err := NewRequester(cfg) // not supplying: probes answer with KindError
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		transport.Write(client, transport.KindProbe, transport.Probe{RequesterID: "x", Class: 1})
		client.Close() // hang up before reading the reply
	}()
	n.handleConn(server)
	<-done
	server.Close()
	if n.WriteFailures() != 1 || hooked.Load() != 1 {
		t.Errorf("WriteFailures = %d, hook fired %d times; want 1 and 1",
			n.WriteFailures(), hooked.Load())
	}
}

// bogusClassDiscovery answers every lookup with the real registry's
// candidates, each preceded by copies of it that carry classes no system
// allows: 0, -1, MaxClass+1 and K+1.
type bogusClassDiscovery struct {
	Discovery
	k bandwidth.Class
}

func (d *bogusClassDiscovery) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	cands, err := d.Discovery.Candidates(ctx, object, m, exclude)
	if err != nil {
		return nil, err
	}
	var out []transport.Candidate
	for _, c := range cands {
		for _, bad := range []bandwidth.Class{0, -1, bandwidth.MaxClass + 1, d.k + 1} {
			b := c
			b.ID, b.Class = fmt.Sprintf("%s-class%d", c.ID, bad), bad
			out = append(out, b)
		}
		out = append(out, c)
	}
	return out, nil
}

// TestInvalidCandidateClassesDropped: a lookup answer whose classes are
// outside [1, K] must not crash the requester (a class with no offer used
// to panic the sweep), and the sweep must still probe, and be served by,
// the valid candidates beside them.
func TestInvalidCandidateClassesDropped(t *testing.T) {
	c := newCluster(t)
	c.seed("seed1", 1)
	c.seed("seed2", 1)
	cfg := c.config("peer1", 1)
	cfg.Discovery = &bogusClassDiscovery{
		Discovery: directory.NewClientOn(c.net.Host("peer1"), c.dirAddr),
		k:         cfg.NumClasses,
	}
	req := c.start(NewRequester(cfg))

	report, err := req.RequestUntilAdmitted(context.Background(), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) != 2 {
		t.Errorf("served by %d suppliers, want the two seeds", len(report.Suppliers))
	}
	for _, s := range report.Suppliers {
		if !s.Class.Valid(cfg.NumClasses) {
			t.Errorf("served by %s with class %d", s.ID, s.Class)
		}
	}
}
