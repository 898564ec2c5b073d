package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/wiring"
)

// TestRunDeterministic: two identically-seeded runs of a jitter-free spec
// with a sequential workload produce identical supplier traces, attempt
// counts and admission series — the property the virtual substrate exists
// for, now exposed through the declarative harness.
func TestRunDeterministic(t *testing.T) {
	spec := Spec{
		Name:        "deterministic",
		DefaultLink: netx.LinkConfig{Latency: 250 * time.Microsecond},
		Seeds:       []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "r0", Class: 1, Start: 0},
			{ID: "r1", Class: 1, Start: 150 * time.Millisecond},
			{ID: "r2", Class: 1, Start: 300 * time.Millisecond},
		},
	}
	trace := func() string {
		report, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Check(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, n := range report.Nodes {
			fmt.Fprintf(&b, "%s<-%v x%d; ", n.ID, n.Suppliers, n.Attempts)
		}
		return b.String()
	}
	first, second := trace(), trace()
	if first != second {
		t.Errorf("runs diverged:\n  first:  %s\n  second: %s", first, second)
	}
	if !strings.Contains(first, "r0<-") {
		t.Fatalf("trace missing r0: %s", first)
	}
}

// TestRequestUntilHeldGivesUp: a requester the harness wires that can never
// be admitted (the only supplier offers R0/4 < R0) burns its whole attempt
// budget in the retry loop the harness calls, reports the final rejection,
// and its node counts every attempt the harness records as Attempts.
func TestRequestUntilHeldGivesUp(t *testing.T) {
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	defer stop()
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})

	dirSrv := directory.NewServer(1)
	dl, err := vnet.Host("dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go dirSrv.Serve(dl)
	defer dirSrv.Close()

	wire := &wiring.Builder{
		Node: node.Config{
			NumClasses: 4, Policy: dac.DAC, File: defaultFile(), M: 8,
			TOut:    40 * time.Millisecond,
			Backoff: dac.BackoffConfig{Base: 5 * time.Millisecond, Factor: 1},
			Clock:   clk,
		},
		DirectoryAddr: dl.Addr().String(),
	}
	start := func(id string, class bandwidth.Class, isSeed bool) *node.Node {
		n, _, err := wire.Start(context.Background(), wiring.Peer{ID: id, Class: class, Seed: 1, Network: vnet.Host(id)}, isSeed)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	start("onlyseed", 2, true)
	req := start("r", 1, false)

	const maxAttempts = 3
	report, err := req.RequestUntilAdmitted(context.Background(), "", maxAttempts)
	if !errors.Is(err, node.ErrRejected) || report != nil {
		t.Fatalf("RequestUntilAdmitted = %v, %v; want ErrRejected and no report", report, err)
	}
	if attempts := req.Stats().Requests; attempts != maxAttempts {
		t.Errorf("attempts = %d, want the whole budget of %d", attempts, maxAttempts)
	}
	if _, err := req.RequestUntilAdmitted(context.Background(), "", 0); err == nil {
		t.Error("maxAttempts 0 accepted")
	}
	if attempts := req.Stats().Requests; attempts != maxAttempts {
		t.Errorf("maxAttempts 0 made %d attempts", attempts-maxAttempts)
	}
}

// TestCachingFailureCountsAsServed: a requester whose session succeeds while
// the one object its cache has room for is pinned by a session it supplies
// gets the caching error beside the session's report, holds no store of the
// new object, and is still served — its store checked from the report, as
// the harness checks it, not from the node, where looking crashed the run.
func TestCachingFailureCountsAsServed(t *testing.T) {
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	defer stop()
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	dirSrv := directory.NewServer(1)
	dirAddr, err := dirSrv.Start(vnet.Host("dir"), ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer dirSrv.Close()

	a, b := defaultFile(), defaultFile()
	a.Name, b.Name = "a", "b"
	wire := &wiring.Builder{
		Node: node.Config{
			NumClasses: 4, Policy: dac.DAC, Objects: []*media.File{a, b}, M: 8,
			CacheBudget: a.TotalBytes(), // one object at a time
			TOut:        40 * time.Millisecond,
			Backoff:     dac.BackoffConfig{Base: 5 * time.Millisecond, Factor: 1},
			Clock:       clk,
		},
		DirectoryAddr: dirAddr,
	}
	start := func(id string, held ...string) *node.Node {
		n, _, err := wire.Start(context.Background(), wiring.Peer{ID: id, Class: 1, Seed: 1, Held: held, Network: vnet.Host(id)}, held != nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	for _, obj := range []string{"a", "b"} {
		start("s1"+obj, obj)
		start("s2"+obj, obj)
	}
	x := start("x")
	if _, err := x.RequestUntilAdmitted(context.Background(), "a", 3); err != nil {
		t.Fatal(err)
	}
	x.Library().Acquire("a") // what a session x supplies of a does while it runs
	defer x.Library().Release("a")

	before := x.Stats().Requests
	report, err := x.RequestUntilAdmitted(context.Background(), "b", 3)
	attempts := x.Stats().Requests - before
	if report == nil || attempts != 1 {
		t.Fatalf("RequestUntilAdmitted(b) = %v after %d attempts, %v; want the first session's report", report, attempts, err)
	}
	if err == nil || !strings.Contains(err.Error(), "caching b") {
		t.Errorf("RequestUntilAdmitted(b) error = %v, want the caching error", err)
	}
	if x.Library().Len() != 1 || x.StoreOf("b") != nil {
		t.Fatalf("x caches %v and a store of b: %v; want a alone", x.Library().Names(), x.StoreOf("b") != nil)
	}
	if storeExact(x.StoreOf("b"), b) {
		t.Error("no store reads as exact")
	}
	if !storeExact(report.Store, b) {
		t.Error("the store the session filled is not exact")
	}
}

// TestReportCheckEnvelope exercises Check's acceptance envelope on
// hand-built reports: MayFail exemptions, per-invariant failures and the
// MinAttempts contention floor.
func TestReportCheckEnvelope(t *testing.T) {
	spec := Spec{Name: "env"}.withDefaults()
	served := NodeResult{
		ID: "ok", Attempts: 1,
		Session:   &node.SessionReport{},
		Supplying: true, Continuous: true, TheoremOK: true, StoreOK: true,
	}
	tests := []struct {
		name    string
		mutate  func(*Report)
		wantErr string
	}{
		{"all good", func(r *Report) {}, ""},
		{"unserved", func(r *Report) {
			r.Nodes = append(r.Nodes, NodeResult{ID: "bad", Err: errors.New("boom")})
		}, "unserved"},
		{"unserved but exempt", func(r *Report) {
			r.Nodes = append(r.Nodes, NodeResult{ID: "bad", Err: errors.New("boom")})
			r.Spec.Expect.MayFail = []string{"bad"}
		}, ""},
		{"corrupt store", func(r *Report) { r.Nodes[0].StoreOK = false }, "store"},
		{"stalls", func(r *Report) { r.Nodes[0].Continuous = false }, "stalled"},
		{"stalls allowed", func(r *Report) {
			r.Nodes[0].Continuous = false
			r.Spec.Expect.AllowStalls = true
		}, ""},
		{"theorem", func(r *Report) { r.Nodes[0].TheoremOK = false }, "Theorem 1"},
		{"not supplying", func(r *Report) { r.Nodes[0].Supplying = false }, "not supplying"},
		{"no contention", func(r *Report) { r.Spec.Expect.MinAttempts = 5 }, "contention"},
		{"nobody served", func(r *Report) {
			r.Nodes[0].Err = errors.New("boom")
			r.Spec.Expect.MayFail = []string{"ok"}
		}, "no requester"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := &Report{Spec: spec, Nodes: []NodeResult{served}}
			r.Nodes[0].Session = &node.SessionReport{}
			tt.mutate(r)
			err := r.Check()
			if tt.wantErr == "" {
				if err != nil {
					t.Errorf("Check() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Check() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}
