package p2pstream_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"p2pstream"
)

// TestPublicAssign exercises the facade exactly as the package doc shows.
func TestPublicAssign(t *testing.T) {
	suppliers := []p2pstream.Supplier{
		{ID: "a", Class: 1}, {ID: "b", Class: 2},
		{ID: "c", Class: 3}, {ID: "d", Class: 3},
	}
	a, err := p2pstream.Assign(suppliers)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.DelaySlots(); got != p2pstream.OptimalDelaySlots(4) {
		t.Errorf("delay = %d, want 4", got)
	}
	blk, err := p2pstream.BlockAssign(suppliers)
	if err != nil {
		t.Fatal(err)
	}
	if blk.DelaySlots() <= a.DelaySlots() {
		t.Error("block assignment should be strictly worse here")
	}
}

func TestPublicAdmissionSupplier(t *testing.T) {
	s, err := p2pstream.NewAdmissionSupplier(2, 4, p2pstream.DAC)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Favors(1) || s.Favors(3) {
		t.Error("initial favored set wrong")
	}
	if s.Offer() != p2pstream.R0/4 {
		t.Errorf("Offer = %v", s.Offer())
	}
}

func TestPublicSimulate(t *testing.T) {
	cfg := p2pstream.DefaultSimConfig()
	cfg.NumRequesters = 500
	cfg.NumSeeds = 10
	cfg.ArrivalWindow = 6 * time.Hour
	cfg.Horizon = 12 * time.Hour
	res, err := p2pstream.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var admitted int64
	for _, a := range res.Admitted {
		admitted += a
	}
	if admitted == 0 {
		t.Error("no peers admitted")
	}
	if _, ok := res.Capacity.Last(); !ok {
		t.Error("no capacity samples")
	}
}

func TestDefaultSimConfigIsPaperSetup(t *testing.T) {
	cfg := p2pstream.DefaultSimConfig()
	if cfg.NumSeeds != 100 || cfg.NumRequesters != 50000 {
		t.Error("population wrong")
	}
	if cfg.M != 8 || cfg.TOut != 20*time.Minute {
		t.Error("protocol parameters wrong")
	}
	if cfg.Backoff != (p2pstream.BackoffConfig{Base: 10 * time.Minute, Factor: 2}) {
		t.Error("backoff wrong")
	}
	if cfg.SessionDuration != time.Hour || cfg.Horizon != 144*time.Hour {
		t.Error("timing wrong")
	}
	want := p2pstream.Distribution{0.1, 0.1, 0.4, 0.4}
	if len(cfg.ClassDist) != len(want) {
		t.Fatal("distribution length wrong")
	}
	for i := range want {
		if cfg.ClassDist[i] != want[i] {
			t.Error("distribution wrong")
		}
	}
}

// TestPublicOverlayDirectory assembles a complete live overlay — directory,
// two seeds, one requester — through the Overlay entrypoint alone, running
// over a virtual network under virtual time.
func TestPublicOverlayDirectory(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond, Jitter: 100 * time.Microsecond})

	dir := p2pstream.NewDirectoryServer(1)
	l, err := vnet.Host("dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go dir.Serve(l)
	t.Cleanup(func() { dir.Close() })

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(l.Addr().String()),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r", Class: 1})
	if err != nil {
		t.Fatal(err)
	}

	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Report.Continuous() {
		t.Errorf("playback stalled %d times", report.Report.Stalls)
	}
	if !req.Store().Complete() || !req.Supplying() {
		t.Error("requester did not finish as a supplying peer")
	}
	if got := len(ov.Nodes()); got != 3 {
		t.Errorf("overlay tracks %d nodes, want 3", got)
	}
	if err := ov.Close(); err != nil {
		t.Fatal(err)
	}
	if req.Supplying() {
		t.Error("Close left a node supplying")
	}
	if _, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "late", Class: 1}); err == nil {
		t.Error("peer creation on a closed overlay should fail")
	}
}

// TestPublicOverlayChord assembles a fully decentralized overlay through
// the Overlay entrypoint: no directory server anywhere — seeds found a
// chord ring (the overlay chains bootstrap membership automatically), the
// requester samples its candidates through it, and joins the ring itself
// after being served.
func TestPublicOverlayChord(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithChord(p2pstream.ChordDiscoveryConfig{}),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) != 2 {
		t.Errorf("served by %d suppliers, want both seeds", len(report.Suppliers))
	}
	if !req.Store().Complete() || !req.Supplying() {
		t.Error("requester did not finish as a supplying peer")
	}
}

// TestPublicOverlayChordReplicated drives the replicated chord ring
// through the facade: the WithChord template's Replication and VirtualNodes
// reach every peer's chordnet config, and when a seed crashes on a
// slow-stabilizing ring (so no repair round can heal it mid-test), later
// requesters are still served through the replica fail-over path — the
// observer sees EventReplicaAnswered and never EventLookupMiss.
func TestPublicOverlayChordReplicated(t *testing.T) {
	ctx := context.Background()
	file := &p2pstream.MediaFile{Name: "v", Segments: 8, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond}

	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})

	var replicaAnswered, lookupMisses atomic.Int64
	obs := p2pstream.ObserverFunc(func(e p2pstream.ObserverEvent) {
		switch e.Type {
		case p2pstream.EventReplicaAnswered:
			replicaAnswered.Add(1)
		case p2pstream.EventLookupMiss:
			lookupMisses.Add(1)
		}
	})
	ov, err := p2pstream.NewOverlay(file,
		// Stabilization far slower than the test: the crashed seed stays
		// spliced into the ring throughout, so only replicas can cover it.
		p2pstream.WithChord(p2pstream.ChordDiscoveryConfig{
			Stabilize: 2 * time.Second, Replication: 2, VirtualNodes: 4,
		}),
		p2pstream.WithObserver(obs),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 10 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2", "s3", "s4"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r0", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.RequestUntilAdmitted(ctx, "", 8); err != nil {
		t.Fatal(err)
	}

	vnet.SetDown("s3")
	// Several post-crash requesters: each one's candidate sampling draws
	// random keys, and draws landing in the corpse's arcs must be answered
	// by its replicas (never come up empty). The loop bounds the run; the
	// per-peer seeded RNGs make the draws themselves deterministic.
	for i := 1; i <= 4 && replicaAnswered.Load() == 0; i++ {
		req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: fmt.Sprintf("r%d", i), Class: 1})
		if err != nil {
			t.Fatal(err)
		}
		report, err := req.RequestUntilAdmitted(ctx, "", 8)
		if err != nil {
			t.Fatalf("r%d after crash: %v", i, err)
		}
		for _, s := range report.Suppliers {
			if s.ID == "s3" {
				t.Fatalf("r%d was served by the crashed seed", i)
			}
		}
	}
	if replicaAnswered.Load() == 0 {
		t.Error("no lookup was answered by a replica — the fail-over path never ran")
	}
	if n := lookupMisses.Load(); n != 0 {
		t.Errorf("%d candidate lookups came up empty — the churn window opened", n)
	}
}

// TestPublicOverlaySharded assembles a sharded-directory overlay through
// the Overlay entrypoint: three DirectoryServer shards behind
// WithDirectory, with the unified Observer counting per-shard fan-out
// legs — and the same declarative scenario surface crashing and
// rebirthing a shard mid-run.
func TestPublicOverlaySharded(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})

	var addrs []string
	for i := 0; i < 3; i++ {
		srv := p2pstream.NewDirectoryServer(int64(i + 1))
		l, err := vnet.Host(p2pstream.ScenarioShardHost(i)).Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, l.Addr().String())
	}

	var shardLegs atomic.Int64
	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(addrs...),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithObserver(p2pstream.ObserverFunc(func(ev p2pstream.ObserverEvent) {
			if ev.Type == p2pstream.EventShardLookup {
				shardLegs.Add(1)
			}
		})),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) != 2 {
		t.Errorf("served by %d suppliers, want both seeds", len(report.Suppliers))
	}
	if got := shardLegs.Load(); got < 3 {
		t.Errorf("observer saw %d shard fan-out legs, want >= one 3-shard fan-out", got)
	}

	// The same surface drives a declarative sharded fault scenario.
	scen, err := p2pstream.RunScenario(p2pstream.Scenario{
		Name:            "facade-sharded",
		DirectoryShards: 3,
		Seeds:           []p2pstream.ScenarioPeer{{ID: "s1", Class: 1}, {ID: "s5", Class: 1}, {ID: "r3", Class: 1}},
		Requesters: []p2pstream.ScenarioPeer{
			{ID: "n0", Class: 1},
			{ID: "n1", Class: 1, Start: 100 * time.Millisecond},
		},
		Churn: []p2pstream.ScenarioChurnEvent{
			{At: 40 * time.Millisecond, Action: p2pstream.ScenarioCrash, Node: p2pstream.ScenarioShardHost(2)},
			{At: 200 * time.Millisecond, Action: p2pstream.ScenarioJoin, Node: p2pstream.ScenarioShardHost(2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := scen.Check(); err != nil {
		t.Fatalf("sharded scenario invariants: %v\n%s", err, scen.Summary())
	}
	if len(scen.ShardSuppliers) != 3 {
		t.Errorf("ShardSuppliers = %v, want 3 shards", scen.ShardSuppliers)
	}
	if len(scen.ShardStats) != 3 {
		t.Errorf("ShardStats = %v, want 3 shards", scen.ShardStats)
	}
	if scen.ShardLookupMs.Len() == 0 {
		t.Error("sharded scenario recorded no shard fan-out latency samples")
	}
}

// TestPublicOverlayElastic drives the elastic directory through the
// facade: an autoscaling deployment attached with WithAutoscale grows the
// registry from one shard to two under a requester's lookup load, every
// peer's sharded client migrates across the flip, and a peer created
// after the flip boots straight into the new epoch — zero lookup misses
// throughout.
func TestPublicOverlayElastic(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})

	var flips, added, moves, misses atomic.Int64
	obs := p2pstream.ObserverFunc(func(ev p2pstream.ObserverEvent) {
		switch ev.Type {
		case p2pstream.EventEpochFlip:
			flips.Add(1)
		case p2pstream.EventShardAdded:
			added.Add(1)
		case p2pstream.EventReshardMove:
			moves.Add(1)
		case p2pstream.EventLookupMiss:
			misses.Add(1)
		}
	})
	boot := func(i int, addr string) (*p2pstream.DirectoryServer, string, error) {
		srv := p2pstream.NewDirectoryServer(int64(i + 1))
		bound, err := srv.Start(vnet.Host(fmt.Sprintf("shard-%d", i)), addr)
		return srv, bound, err
	}
	dep, err := p2pstream.DeployDirectory(1, boot, &p2pstream.ReshardConfig{
		Clock:     clk,
		Interval:  20 * time.Millisecond,
		HighWater: 0.5,
		LowWater:  0,
		Sustain:   1,
		MaxShards: 2,
		Observer:  obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithAutoscale(dep),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithObserver(obs),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })

	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r1", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RequestUntilAdmitted(ctx, "", 5); err != nil {
		t.Fatal(err)
	}

	// r1's lookups put the single shard over the high-water mark; the next
	// sampling tick must spawn shard-1 and flip the epoch.
	deadline := time.Now().Add(10 * time.Second)
	for flips.Load() < 1 || moves.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("deployment never flipped: flips=%d moves=%d", flips.Load(), moves.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if epoch, members := dep.Snapshot(); epoch < 2 || len(members) != 2 {
		t.Fatalf("post-flip snapshot epoch=%d shards=%d, want epoch >= 2 with 2 shards", epoch, len(members))
	}
	if flips.Load() < 1 || added.Load() < 1 {
		t.Errorf("observer saw %d flips and %d shard-adds, want >= 1 each", flips.Load(), added.Load())
	}

	// A peer created after the flip boots from the deployment's live
	// snapshot and must still find both seeds on the grown shard set.
	r2, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r2", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := r2.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Suppliers) < 2 {
		t.Errorf("post-flip requester served by %d suppliers, want >= 2", len(report.Suppliers))
	}
	if got := misses.Load(); got != 0 {
		t.Errorf("observer saw %d lookup misses across the flip, want 0", got)
	}
}

// TestPublicOverlayElasticOptionErrors pins WithAutoscale's misuse errors:
// it rejects a nil deployment and requires the sharded directory backend.
func TestPublicOverlayElasticOptionErrors(t *testing.T) {
	file := &p2pstream.MediaFile{Name: "v", Segments: 4, SegmentBytes: 16, SegmentTime: time.Millisecond}
	if _, err := p2pstream.NewOverlay(file, p2pstream.WithAutoscale(nil)); err == nil {
		t.Error("WithAutoscale(nil) built an overlay, want error")
	}
	vnet := p2pstream.NewVirtualNetwork(p2pstream.NewVirtualClock(), 1)
	dep, err := p2pstream.DeployDirectory(1, func(_ int, addr string) (*p2pstream.DirectoryServer, string, error) {
		srv := p2pstream.NewDirectoryServer(1)
		bound, err := srv.Start(vnet.Host("dir"), addr)
		return srv, bound, err
	}, &p2pstream.ReshardConfig{Interval: time.Second, HighWater: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := p2pstream.NewOverlay(file,
		p2pstream.WithChord(p2pstream.ChordDiscoveryConfig{}),
		p2pstream.WithAutoscale(dep),
	); err == nil {
		t.Error("WithAutoscale over chord discovery built an overlay, want error")
	}
}

// TestPublicDeclarativeScenario runs a declarative scenario through the
// facade: a Spec assembled as data, executed by RunScenario, checked by
// the report's invariants — plus catalog access by name.
func TestPublicDeclarativeScenario(t *testing.T) {
	report, err := p2pstream.RunScenario(p2pstream.Scenario{
		Name:  "facade",
		Seeds: []p2pstream.ScenarioPeer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []p2pstream.ScenarioPeer{
			{ID: "r1", Class: 1},
			{ID: "r2", Class: 2, Start: 80 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatal(err)
	}
	if report.Served() != 2 {
		t.Errorf("served = %d, want 2", report.Served())
	}
	if len(p2pstream.ScenarioCatalog()) < 8 {
		t.Errorf("catalog has %d scenarios, want >= 8", len(p2pstream.ScenarioCatalog()))
	}
	if _, ok := p2pstream.ScenarioByName("flash-crowd"); !ok {
		t.Error("flash-crowd missing from the catalog")
	}
}

// TestPublicOverlayCongestion drives the congestion-aware data plane
// through the public facade: the seed's link is bandwidth-capped below the
// stream's full-quality wire rate, so the supplier must pace, the estimate
// converges under the committed rate, and the bitrate ladder steps down —
// while the startup buffer keeps playback continuous.
func TestPublicOverlayCongestion(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})
	// The two supplier links share the requester's ingress bottleneck, so
	// their caps act as one pipe: the combined full-quality wire rate
	// (~130 KB/s: 1 KiB segments under 1% of framing, plus acks) cannot
	// fit through 105 KiB/s, the combined first-step rendition (~67 KB/s)
	// can.
	vnet.SetLink("s1", "r", p2pstream.LinkConfig{Latency: 300 * time.Microsecond, Bandwidth: 105 << 10})
	vnet.SetLink("s2", "r", p2pstream.LinkConfig{Latency: 300 * time.Microsecond, Bandwidth: 105 << 10})

	dir := p2pstream.NewDirectoryServer(1)
	l, err := vnet.Host("dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go dir.Serve(l)
	t.Cleanup(func() { dir.Close() })

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 1024, SegmentTime: 8 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(l.Addr().String()),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithStartupBuffer(32*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Report.Continuous() {
		t.Errorf("playback stalled %d times despite the ABR ladder", report.Report.Stalls)
	}
	if report.Downgraded == 0 {
		t.Error("session on a capped link never downgraded")
	}
	if report.MaxQuality == 0 {
		t.Error("MaxQuality still full despite downgraded segments")
	}

	// The option constructors validate their domain.
	if _, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(l.Addr().String()),
		p2pstream.WithPriority(-1),
	); err == nil {
		t.Error("negative priority accepted")
	}
	if _, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(l.Addr().String()),
		p2pstream.WithStartupBuffer(-time.Millisecond),
	); err == nil {
		t.Error("negative startup buffer accepted")
	}
}

// TestPublicOverlayNoAdaptation: the control plane of the same experiment —
// WithoutAdaptation restores the burst-on-schedule sender, which on the
// same capped link either stalls playback or drops at the queue. This is
// the public-facade version of the scenario suite's NoAdapt control runs.
func TestPublicOverlayNoAdaptation(t *testing.T) {
	ctx := context.Background()
	clk := p2pstream.NewVirtualClock()
	t.Cleanup(clk.AutoRun())
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})
	vnet.SetLink("s1", "r", p2pstream.LinkConfig{Latency: 300 * time.Microsecond, Bandwidth: 105 << 10})
	vnet.SetLink("s2", "r", p2pstream.LinkConfig{Latency: 300 * time.Microsecond, Bandwidth: 105 << 10})

	dir := p2pstream.NewDirectoryServer(1)
	l, err := vnet.Host("dir").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	go dir.Serve(l)
	t.Cleanup(func() { dir.Close() })

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 1024, SegmentTime: 8 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(l.Addr().String()),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithoutAdaptation(),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r", Class: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if report.Downgraded != 0 {
		t.Errorf("unadapted sender downgraded %d segments", report.Downgraded)
	}
	if report.Report.Continuous() {
		t.Error("burst sender on the capped link played continuously; the congestion control is not being exercised")
	}
}
