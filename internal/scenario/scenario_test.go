package scenario

import (
	"strings"
	"testing"
	"time"

	"p2pstream/internal/directory"
	"p2pstream/internal/metrics"
	"p2pstream/internal/observe"
)

// TestCatalogConformance runs every cataloged scenario end to end on the
// virtual substrate and enforces its invariants: requesters outside the
// scenario's MayFail set are served with byte-exact stores, continuous
// playback (unless the scenario injects loss), the Theorem 1 delay bound,
// and a seat as a supplying peer. This is the protocol's conformance
// suite; it must stay deterministic (-race -count=2 -shuffle=on).
func TestCatalogConformance(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			report, err := Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := report.Check(); err != nil {
				t.Fatalf("invariants: %v\n%s", err, report.Summary())
			}
			if report.Served() == 0 {
				t.Fatal("no requester served")
			}
			if got := report.Admission.Len(); got != report.Served() {
				t.Errorf("admission series has %d samples, want %d", got, report.Served())
			}
			if report.FinalSuppliers == 0 {
				t.Error("no suppliers registered at the end")
			}
		})
	}
}

// TestCatalogWellFormed: every catalog entry validates, has a unique name,
// documents what it stresses, and is reachable via ByName.
func TestCatalogWellFormed(t *testing.T) {
	cat := Catalog()
	if len(cat) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(cat))
	}
	seen := map[string]bool{}
	for _, spec := range cat {
		if seen[spec.Name] {
			t.Errorf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		if spec.Stresses == "" {
			t.Errorf("scenario %q does not document what it stresses", spec.Name)
		}
		withDefaults := spec.withDefaults()
		if err := withDefaults.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", spec.Name, err)
		}
		got, ok := ByName(spec.Name)
		if !ok || got.Name != spec.Name {
			t.Errorf("ByName(%q) = %v, %v", spec.Name, got.Name, ok)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName accepted an unknown name")
	}
}

// TestChurnStormDetails pins the scenario-specific outcomes of the richest
// catalog entry: the crashed seed serves nobody after the crash instant,
// the leaver was served before leaving, and the late joiner catches up.
func TestChurnStormDetails(t *testing.T) {
	spec, ok := ByName("churn-storm")
	if !ok {
		t.Fatal("churn-storm not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	joiner := report.Node("n10")
	if joiner == nil || joiner.Err != nil {
		t.Fatalf("late joiner n10 not served: %+v", joiner)
	}
	if joiner.Start < 900*time.Millisecond {
		t.Errorf("joiner started at %v, before its churn instant", joiner.Start)
	}
	for _, sup := range joiner.Suppliers {
		if sup == "n0" {
			t.Error("joiner was served by the supplier that left at 500ms")
		}
	}
	// While s3 is down (crash at 200ms, rejoin at 1000ms), no session may
	// complete against it; sessions finishing before the crash could have
	// used it legitimately, as could the revived instance afterwards.
	for _, n := range report.Nodes {
		if n.Err != nil || n.Done <= 250*time.Millisecond || n.Done >= 1000*time.Millisecond {
			continue
		}
		for _, sup := range n.Suppliers {
			if sup == "s3" {
				t.Errorf("%s (done %v) was served by s3 while it was down", n.ID, n.Done)
			}
		}
	}
	leaver := report.Node("n0")
	if leaver == nil || leaver.Err != nil {
		t.Fatalf("leaver n0 must have been served before leaving: %+v", leaver)
	}
	if leaver.Done > 500*time.Millisecond {
		t.Errorf("leaver completed at %v, after its leave instant", leaver.Done)
	}
	// The crashed seed's host rejoined as a requester with an empty store
	// and must end the run fully served again.
	rejoined := report.Node("s3")
	if rejoined == nil || rejoined.Err != nil {
		t.Fatalf("rejoined s3 not served: %+v", rejoined)
	}
	if rejoined.Start < 1000*time.Millisecond {
		t.Errorf("s3 rejoined at %v, before its churn instant", rejoined.Start)
	}
	if !rejoined.StoreOK || !rejoined.Supplying {
		t.Error("rejoined s3 did not end as a byte-exact supplying peer")
	}
}

// TestPartitionHealDetails: the partitioned requesters complete only after
// the heal instant; the unpartitioned ones long before it.
func TestPartitionHealDetails(t *testing.T) {
	spec, ok := ByName("partition-heal")
	if !ok {
		t.Fatal("partition-heal not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	for _, id := range []string{"p1", "p2"} {
		n := report.Node(id)
		if n.Done < 300*time.Millisecond {
			t.Errorf("partitioned %s completed at %v, before the heal", id, n.Done)
		}
		if n.Attempts < 2 {
			t.Errorf("partitioned %s needed %d attempts; the partition cost it nothing", id, n.Attempts)
		}
	}
	if n := report.Node("n1"); n.Done > 300*time.Millisecond {
		t.Errorf("unpartitioned n1 completed only at %v", n.Done)
	}
}

// TestPauseResumeDetails: the post-pause class-4 requesters are served by
// relaxed class-1 suppliers — the idle-elevation mechanism end to end.
func TestPauseResumeDetails(t *testing.T) {
	spec, ok := ByName("pause-resume")
	if !ok {
		t.Fatal("pause-resume not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	for _, id := range []string{"p1", "p2"} {
		n := report.Node(id)
		if len(n.Suppliers) != 2 {
			t.Errorf("%s served by %d suppliers, want 2 class-1 grants", id, len(n.Suppliers))
		}
	}
}

// TestDecentralizedLookupDetails pins the headline property of the chord
// backend: with zero directory servers running, every session completes
// byte-exact within the Theorem 1 bound (Check enforces StoreOK and
// TheoremOK for every served peer, and the spec exempts nobody).
func TestDecentralizedLookupDetails(t *testing.T) {
	spec, ok := ByName("decentralized-lookup")
	if !ok {
		t.Fatal("decentralized-lookup not in catalog")
	}
	if spec.Discovery != BackendChord || spec.KeepDirectory {
		t.Fatalf("spec must run pure chord discovery: %+v", spec.Discovery)
	}
	if len(spec.Expect.MayFail) != 0 {
		t.Fatal("no requester may be exempt: every session must complete")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Errorf("served %d of %d requesters", got, want)
	}
	// Seeds plus every served requester supply at the end; nobody left.
	if want := len(spec.Seeds) + len(spec.Requesters); report.FinalSuppliers != want {
		t.Errorf("final suppliers = %d, want %d", report.FinalSuppliers, want)
	}
}

// TestDirectoryCrashDetails: the decoy directory dies at 60ms with n0 and
// n1 mid-session; both finish, and the post-crash arrivals are served in
// a directoryless overlay.
func TestDirectoryCrashDetails(t *testing.T) {
	spec, ok := ByName("directory-crash")
	if !ok {
		t.Fatal("directory-crash not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	crash := 60 * time.Millisecond
	for _, id := range []string{"n0", "n1"} {
		n := report.Node(id)
		if n == nil || n.Err != nil {
			t.Fatalf("in-flight requester %s not served: %+v", id, n)
		}
		if n.Start >= crash || n.Done <= crash {
			t.Errorf("%s ran %v..%v; the crash at %v should have caught it mid-session",
				id, n.Start, n.Done, crash)
		}
	}
	for _, id := range []string{"n2", "n3"} {
		n := report.Node(id)
		if n == nil || n.Err != nil {
			t.Fatalf("post-crash requester %s not served: %+v", id, n)
		}
		if n.Start <= crash {
			t.Errorf("%s started at %v, not after the directory died", id, n.Start)
		}
	}
}

// TestChordChurnDetails: the wire-level ring heals through the harness's
// crash/rejoin plumbing — nobody is served by the crashed seed while it is
// down, and both the late joiner and the revived host complete.
func TestChordChurnDetails(t *testing.T) {
	spec, ok := ByName("chord-churn")
	if !ok {
		t.Fatal("chord-churn not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	for _, n := range report.Nodes {
		if n.Err != nil || n.Done <= 250*time.Millisecond || n.Done >= 700*time.Millisecond {
			continue
		}
		for _, sup := range n.Suppliers {
			if sup == "s3" {
				t.Errorf("%s (done %v) was served by s3 while it was down", n.ID, n.Done)
			}
		}
	}
	joiner := report.Node("n5")
	if joiner == nil || joiner.Err != nil {
		t.Fatalf("late joiner n5 not served: %+v", joiner)
	}
	rejoined := report.Node("s3")
	if rejoined == nil || rejoined.Err != nil {
		t.Fatalf("rejoined s3 not served: %+v", rejoined)
	}
	if rejoined.Start < 700*time.Millisecond {
		t.Errorf("s3 rejoined at %v, before its churn instant", rejoined.Start)
	}
	if !rejoined.StoreOK || !rejoined.Supplying {
		t.Error("rejoined s3 did not end as a byte-exact supplying peer")
	}
}

// TestChordCensusLeaveThenRejoin: a graceful leaver that later rejoins
// (via the crash-rejoin plumbing) is retired from the chord supplier
// census exactly once — closeNode retires it at the Leave, and the
// displacing track() must not retire the closed instance a second time.
func TestChordCensusLeaveThenRejoin(t *testing.T) {
	spec := Spec{
		Name:       "census-leave-rejoin",
		Discovery:  BackendChord,
		Seeds:      []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{{ID: "n0", Class: 2, Start: 0}},
		Churn: []ChurnEvent{
			{At: 300 * time.Millisecond, Action: Leave, Node: "n0"},
			{At: 380 * time.Millisecond, Action: Crash, Node: "n0"},
			{At: 500 * time.Millisecond, Action: Join, Node: "n0", Class: 2},
		},
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	// Two seeds plus the rejoined n0 supply at the end: the leave retired
	// n0's first instance, and only that instance, exactly once.
	if want := 3; report.FinalSuppliers != want {
		t.Errorf("final suppliers = %d, want %d", report.FinalSuppliers, want)
	}
}

// shardOwners asserts the deterministic shard placement the sharded
// catalog entries are designed around, so a change to chord.HashKey or the
// ring geometry cannot silently invalidate them.
func shardOwners(t *testing.T) *directory.ShardRing {
	t.Helper()
	ring, err := directory.NewShardRing(3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"s5": 0, "n0": 0, "n8": 0, "s1": 1, "n4": 1, "n5": 1, "r3": 2, "n1": 2, "n2": 2, "n3": 2}
	for id, shard := range want {
		if got := ring.Owner(id); got != shard {
			t.Fatalf("ShardRing places %s on shard %d, the scenarios assume %d — redesign the sharded catalog entries", id, got, shard)
		}
	}
	return ring
}

// TestShardedLookupDetails pins the steady-state tentpole property: with
// the registry split over three shards, every session completes and every
// shard ends holding exactly the suppliers whose IDs it owns.
func TestShardedLookupDetails(t *testing.T) {
	ring := shardOwners(t)
	spec, ok := ByName("sharded-lookup")
	if !ok {
		t.Fatal("sharded-lookup not in catalog")
	}
	if spec.DirectoryShards != 3 {
		t.Fatalf("DirectoryShards = %d, want 3", spec.DirectoryShards)
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Errorf("served %d of %d requesters", got, want)
	}
	all := len(spec.Seeds) + len(spec.Requesters)
	if report.FinalSuppliers != all {
		t.Errorf("final suppliers = %d, want %d", report.FinalSuppliers, all)
	}
	want := make([]int, 3)
	for _, p := range append(append([]Peer(nil), spec.Seeds...), spec.Requesters...) {
		want[ring.Owner(p.ID)]++
	}
	if len(report.ShardSuppliers) != 3 {
		t.Fatalf("ShardSuppliers = %v, want 3 shards", report.ShardSuppliers)
	}
	for i, n := range report.ShardSuppliers {
		if n != want[i] {
			t.Errorf("shard %d ends with %d suppliers, want %d (owner-routed registration)", i, n, want[i])
		}
		if n == 0 {
			t.Errorf("shard %d ends empty; the scenario should spread suppliers over every shard", i)
		}
	}
	// The sharded fan-out metrics ride the admission axis: per-leg latency
	// samples and a (zero-valued, steady-state) failure count per served
	// requester, plus final per-shard server counters.
	if report.ShardLookupMs.Len() != report.Served() {
		t.Errorf("ShardLookupMs has %d samples, want one per served requester (%d)",
			report.ShardLookupMs.Len(), report.Served())
	}
	if mean, ok := meanOf(report.ShardLookupMs); !ok || mean <= 0 {
		t.Errorf("mean shard fan-out latency = %v, %v; want > 0", mean, ok)
	}
	if fails, ok := report.ShardFailures.Last(); !ok || fails != 0 {
		t.Errorf("steady-state run recorded %v failed shard legs, want 0", fails)
	}
	if len(report.ShardStats) != 3 {
		t.Fatalf("ShardStats = %v, want 3 shards", report.ShardStats)
	}
	for i, st := range report.ShardStats {
		if st.Lookups == 0 {
			t.Errorf("shard %d served no lookups; the fan-out should hit every shard", i)
		}
	}
}

// TestShardCrashDetails: the mid-run shard kill costs visibility of the
// suppliers it owned — and nothing else. Every session completes,
// including n2's (mid-session at the kill, its own registration owned by
// the dead shard), and the dead shard counts zero at the end.
func TestShardCrashDetails(t *testing.T) {
	ring := shardOwners(t)
	spec, ok := ByName("shard-crash")
	if !ok {
		t.Fatal("shard-crash not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Fatalf("served %d of %d requesters despite one dead shard", got, want)
	}
	crash := 70 * time.Millisecond
	n2 := report.Node("n2")
	if n2.Start >= crash || n2.Done <= crash {
		t.Errorf("n2 ran %v..%v; the shard kill at %v should have caught it mid-session", n2.Start, n2.Done, crash)
	}
	if len(report.ShardSuppliers) != 3 || report.ShardSuppliers[2] != 0 {
		t.Errorf("dead shard should count 0 suppliers: %v", report.ShardSuppliers)
	}
	// The survivors hold exactly their own keys: suppliers owned by the
	// dead shard (seed r3, requesters n2 and its shard-mates) are
	// invisible, everyone else is registered.
	visible := 0
	for _, p := range append(append([]Peer(nil), spec.Seeds...), spec.Requesters...) {
		if ring.Owner(p.ID) != 2 {
			visible++
		}
	}
	if report.FinalSuppliers != visible {
		t.Errorf("final suppliers = %d, want the %d not owned by the dead shard", report.FinalSuppliers, visible)
	}
	// Post-crash arrivals were served by fan-outs over the survivors.
	for _, id := range []string{"n4", "n8", "n5"} {
		n := report.Node(id)
		if n == nil || n.Err != nil {
			t.Fatalf("post-crash requester %s not served: %+v", id, n)
		}
		if n.Start <= crash {
			t.Errorf("%s started at %v, not after the shard died", id, n.Start)
		}
	}
	// The dead shard's failed fan-out legs surface in the metrics: the
	// cumulative failure series must end above zero.
	if fails, ok := report.ShardFailures.Last(); !ok || fails == 0 {
		t.Errorf("shard kill produced %v failed fan-out legs in the series, want > 0", fails)
	}
}

// TestShardRejoinDetails: the reborn shard starts empty and is
// repopulated by lease re-registration — the crashed shard's seed (r3)
// and the requester served during the outage (n1, owned by the dead
// shard) are discoverable again, and the registry converges to exactly
// the steady-state placement.
func TestShardRejoinDetails(t *testing.T) {
	ring := shardOwners(t)
	spec, ok := ByName("shard-rejoin")
	if !ok {
		t.Fatal("shard-rejoin not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Fatalf("served %d of %d requesters", got, want)
	}
	// n1 completed during the outage: its own registration could only
	// land via the lease after the rebirth.
	n1 := report.Node("n1")
	if ring.Owner("n1") != 2 {
		t.Fatal("n1 must be owned by the crashed shard for this test to bite")
	}
	if n1.Done <= 80*time.Millisecond || n1.Done >= 320*time.Millisecond {
		t.Errorf("n1 completed at %v, want inside the outage window (80ms..320ms)", n1.Done)
	}
	want := make([]int, 3)
	for _, p := range append(append([]Peer(nil), spec.Seeds...), spec.Requesters...) {
		want[ring.Owner(p.ID)]++
	}
	if len(report.ShardSuppliers) != 3 {
		t.Fatalf("ShardSuppliers = %v, want 3 shards", report.ShardSuppliers)
	}
	for i, n := range report.ShardSuppliers {
		if n != want[i] {
			t.Errorf("shard %d ends with %d suppliers, want %d (diversity must fully recover)", i, n, want[i])
		}
	}
	if all := len(spec.Seeds) + len(spec.Requesters); report.FinalSuppliers != all {
		t.Errorf("final suppliers = %d, want %d", report.FinalSuppliers, all)
	}
}

// TestReshardFlashDetails: the elastic registry's scale-out story. One
// centralized shard meets a 16-peer flash crowd; the controller grows the
// ring to four shards within the first sampling ticks, every watching
// client migrates its registrations across each epoch in a batched round,
// and after the crowd is absorbed the quiet registry drains back down —
// with zero lost registrations and zero empty lookups across the whole
// lifecycle, and every migration converging inside one lease-refresh
// period.
func TestReshardFlashDetails(t *testing.T) {
	spec, ok := ByName("reshard-flash")
	if !ok {
		t.Fatal("reshard-flash not in catalog")
	}
	if spec.Autoscale == nil || spec.shardCount() != 1 {
		t.Fatalf("reshard-flash must autoscale from a single shard (Autoscale=%v, shards=%d)",
			spec.Autoscale, spec.shardCount())
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Fatalf("served %d of %d requesters", got, want)
	}
	all := len(spec.Seeds) + len(spec.Requesters)
	if report.FinalSuppliers != all {
		t.Errorf("final suppliers = %d, want %d", report.FinalSuppliers, all)
	}
	// The ring must actually have reached four shards: three growth flips
	// from one shard, each a distinct spawned slot.
	ev := report.Events
	flips, added, drained := ev.Of(observe.EpochFlip).N, ev.Of(observe.ShardAdded).N, ev.Of(observe.ShardDrained).N
	if added < 3 {
		t.Errorf("controller added %d shards, want >= 3 (the crowd must force the ring to four)", added)
	}
	if flips != added+drained {
		t.Errorf("flips = %d, want adds+drains = %d", flips, added+drained)
	}
	// Slots are append-only (drained identities are never reused): one
	// initial shard plus one per add, and the live suppliers all sit on
	// shards still in the final ring.
	if got, want := len(report.ShardSuppliers), 1+int(added); got != want {
		t.Fatalf("ShardSuppliers = %v (%d slots), want %d (1 initial + %d added)",
			report.ShardSuppliers, got, want, added)
	}
	sum := 0
	for _, n := range report.ShardSuppliers {
		sum += n
	}
	if sum != report.FinalSuppliers {
		t.Errorf("shard counts %v sum to %d, FinalSuppliers = %d", report.ShardSuppliers, sum, report.FinalSuppliers)
	}
	moves := ev.Of(observe.ReshardMove)
	if moves.Sum == 0 {
		t.Error("no registrations migrated; every flip should move the held leases")
	}
	if moves.MaxLatency <= 0 || moves.MaxLatency >= shardRefresh {
		t.Errorf("slowest flip convergence = %v, want within (0, %v): elasticity must beat the lease period",
			moves.MaxLatency, shardRefresh)
	}
	if len(report.LostRegistrations) != 0 {
		t.Errorf("lost registrations: %v", report.LostRegistrations)
	}
	if failed := ev.Of(observe.ShardLookup).Errs; failed != 0 {
		t.Errorf("%d failed fan-out legs, want 0 (clients must never dial a retired shard)", failed)
	}
	// The elastic counters ride the admission axis: one epoch-flip and one
	// migration sample per served requester, and the last finisher has
	// lived through at least the three growth flips.
	if report.Epochs.Len() != report.Served() || report.Moves.Len() != report.Served() {
		t.Errorf("Epochs/Moves have %d/%d samples, want one per served requester (%d)",
			report.Epochs.Len(), report.Moves.Len(), report.Served())
	}
	if last, ok := report.Epochs.Last(); !ok || last < 3 {
		t.Errorf("last requester finished having seen %v flips, want >= 3", last)
	}
}

// TestReshardDrainDetails: the scale-in story. Three shards under load too
// light to justify them drain to the floor while sessions are in flight;
// the two flips happen early enough that the late arrivals boot straight
// into the shrunken ring, and no client ever fans out to a drained shard
// (zero failed legs).
func TestReshardDrainDetails(t *testing.T) {
	spec, ok := ByName("reshard-drain")
	if !ok {
		t.Fatal("reshard-drain not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	if got, want := report.Served(), len(spec.Requesters); got != want {
		t.Fatalf("served %d of %d requesters", got, want)
	}
	// With HighWater unreachably high the controller can only drain: two
	// flips exactly, from three shards down to the one-shard floor.
	ev := report.Events
	flips, added, drained := ev.Of(observe.EpochFlip).N, ev.Of(observe.ShardAdded).N, ev.Of(observe.ShardDrained).N
	if flips != 2 || added != 0 || drained != 2 {
		t.Errorf("flips=%d added=%d drained=%d, want exactly 2 drains and nothing else", flips, added, drained)
	}
	if len(report.ShardSuppliers) != 3 {
		t.Fatalf("ShardSuppliers = %v, want the 3 declared slots", report.ShardSuppliers)
	}
	live, sum := 0, 0
	for _, n := range report.ShardSuppliers {
		sum += n
		if n > 0 {
			live++
		}
	}
	if live != 1 {
		t.Errorf("suppliers ended on %d shards (%v), want all on the lone survivor", live, report.ShardSuppliers)
	}
	if all := len(spec.Seeds) + len(spec.Requesters); sum != all || report.FinalSuppliers != all {
		t.Errorf("suppliers %v sum to %d, FinalSuppliers = %d, want %d", report.ShardSuppliers, sum, report.FinalSuppliers, all)
	}
	moves := ev.Of(observe.ReshardMove)
	if moves.Sum == 0 {
		t.Error("no registrations migrated; the drained shards held live leases")
	}
	if moves.MaxLatency <= 0 || moves.MaxLatency >= shardRefresh {
		t.Errorf("slowest flip convergence = %v, want within (0, %v)", moves.MaxLatency, shardRefresh)
	}
	if len(report.LostRegistrations) != 0 {
		t.Errorf("lost registrations: %v", report.LostRegistrations)
	}
	if failed := ev.Of(observe.ShardLookup).Errs; failed != 0 {
		t.Errorf("%d failed fan-out legs, want 0: late arrivals must never be routed to a drained shard", failed)
	}
	// The late arrivals (n2 at 400ms, n3 at 480ms) booted after both
	// drains and finished with the full flip count on their axis sample.
	for _, id := range []string{"n2", "n3"} {
		n := report.Node(id)
		if n == nil {
			t.Fatalf("no result for %s", id)
		}
		if seen := n.Events.Of(observe.EpochFlip).N; seen != 2 {
			t.Errorf("%s finished having seen %d flips, want 2 (it arrived after both drains)", id, seen)
		}
	}
}

// TestCatalogRunsSharded is the tentpole's interface guarantee: any
// catalog entry runs with DirectoryShards set and no other change —
// node.Discovery hides the sharding entirely — with every invariant
// intact. Chord-backed entries ignore the knob (they run no directory).
func TestCatalogRunsSharded(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		if spec.Discovery == BackendChord || spec.DirectoryShards >= 2 || spec.Autoscale != nil {
			// Chord entries run no directory (the knob is inert — proven
			// once by a conformance run with the knob set below); natively
			// sharded entries already ran sharded in TestCatalogConformance;
			// elastic entries own their shard count (the controller grows
			// and drains it live, so a fixed three-shard assertion is moot).
			continue
		}
		spec.DirectoryShards = 3
		t.Run(spec.Name, func(t *testing.T) {
			report, err := Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := report.Check(); err != nil {
				t.Fatalf("invariants: %v\n%s", err, report.Summary())
			}
			if spec.Discovery == BackendDirectory {
				if len(report.ShardSuppliers) != 3 {
					t.Fatalf("ShardSuppliers = %v, want 3 shards", report.ShardSuppliers)
				}
				sum := 0
				for _, n := range report.ShardSuppliers {
					sum += n
				}
				if sum != report.FinalSuppliers {
					t.Errorf("shard counts %v sum to %d, FinalSuppliers = %d",
						report.ShardSuppliers, sum, report.FinalSuppliers)
				}
			}
		})
	}
	// One chord entry with the knob set proves it is inert there: the run
	// is a plain chord run, no directory anywhere.
	spec, ok := ByName("decentralized-lookup")
	if !ok {
		t.Fatal("decentralized-lookup not in catalog")
	}
	spec.DirectoryShards = 3
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("chord run with DirectoryShards set: %v", err)
	}
	if len(report.ShardSuppliers) != 0 {
		t.Errorf("chord run reports shard counts %v; the knob should be inert", report.ShardSuppliers)
	}
}

// TestChordDiscoveryMetrics: chord-backed reports carry the discovery-cost
// series (lookup hops, sample rounds) on the same time axis as the
// admission series, with real samples for every served requester.
func TestChordDiscoveryMetrics(t *testing.T) {
	spec, ok := ByName("decentralized-lookup")
	if !ok {
		t.Fatal("decentralized-lookup not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	served := report.Served()
	for _, s := range []*metrics.Series{report.LookupHops, report.SampleRounds} {
		if s.Len() != served {
			t.Fatalf("series %s has %d samples, want %d", s.Name, s.Len(), served)
		}
		for i := 0; i < s.Len(); i++ {
			if s.Missing(i) {
				t.Errorf("series %s sample %d is blank on a chord run", s.Name, i)
			}
			if s.Times[i] != report.Admission.Times[i] {
				t.Errorf("series %s sample %d at %v, admission at %v — axis not shared",
					s.Name, i, s.Times[i], report.Admission.Times[i])
			}
		}
	}
	if max, _ := report.SampleRounds.Max(); max < 1 {
		t.Error("no requester recorded a candidate sample round")
	}
	// Every served requester drew candidates through routed lookups.
	for _, n := range report.Nodes {
		if n.Err == nil && n.Lookups == 0 {
			t.Errorf("%s served with zero chord lookups recorded", n.ID)
		}
	}
	// The series render into the shared CSV with values, not blanks.
	var b strings.Builder
	if err := report.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != served+1 {
		t.Fatalf("CSV has %d lines, want header + %d", len(lines), served)
	}
	cols := strings.Split(lines[1], ",")
	if len(cols) != 14 || cols[5] == "" || cols[6] == "" {
		t.Errorf("chord run CSV should carry discovery-cost values: %q", lines[1])
	}
	if len(cols) == 14 && (cols[7] != "" || cols[8] != "") {
		t.Errorf("chord run CSV should leave the shard columns blank: %q", lines[1])
	}
	if len(cols) == 14 && (cols[9] == "" || cols[10] == "") {
		t.Errorf("chord run CSV should carry data-plane values: %q", lines[1])
	}
	if len(cols) == 14 && (cols[12] != "" || cols[13] != "") {
		t.Errorf("chord run CSV should leave the elastic-registry columns blank: %q", lines[1])
	}
}

// TestChordChurnLeaveStaleness: with the graceful chord-leave handover,
// the leaver (n0, gone at 480ms) vanishes from discovery the instant it
// leaves — no session completing after the leave (plus one sample round's
// slack) is served by it, where a crash would leave stale ring entries
// feeding the down path for a stabilization window.
func TestChordChurnLeaveStaleness(t *testing.T) {
	spec, ok := ByName("chord-churn")
	if !ok {
		t.Fatal("chord-churn not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	leave := 480 * time.Millisecond
	for _, n := range report.Nodes {
		if n.Err != nil || n.Done <= leave {
			continue
		}
		for _, sup := range n.Suppliers {
			if sup == "n0" {
				t.Errorf("%s (done %v) was served by n0, which left gracefully at %v", n.ID, n.Done, leave)
			}
		}
	}
}

// TestReportCSV: the report's series share one axis and render as CSV with
// a millisecond time column.
func TestReportCSV(t *testing.T) {
	report, err := Run(Spec{
		Name:       "csv",
		Seeds:      []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{{ID: "r1", Class: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := report.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 sample:\n%s", len(lines), b.String())
	}
	if want := "ms,admission_ms,attempts,buffering_ms,suppliers,lookup_hops,sample_rounds,shard_lookup_ms,shard_failures,downgraded,throughput_bps,evictions,epoch_flips,reshard_moves"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	// Directory-backed runs have no routed lookups: the discovery-cost
	// columns are present but blank, keeping one shared table. The
	// data-plane columns (downgraded, throughput) always carry values.
	cols := strings.Split(lines[1], ",")
	if len(cols) != 14 {
		t.Fatalf("sample has %d columns, want 14: %q", len(cols), lines[1])
	}
	for i := 5; i <= 8; i++ {
		if cols[i] != "" {
			t.Errorf("unsharded directory-backed sample should leave discovery- and shard-cost column %d blank: %q", i, lines[1])
		}
	}
	// A static registry has no resharding epochs: elastic columns blank.
	if cols[12] != "" || cols[13] != "" {
		t.Errorf("static-registry sample should leave the elastic columns blank: %q", lines[1])
	}
	if cols[9] == "" || cols[10] == "" {
		t.Errorf("sample should carry data-plane values: %q", lines[1])
	}
	if cols[11] == "" {
		t.Errorf("sample should carry the eviction count (zero, not blank): %q", lines[1])
	}
	if sum := report.Summary(); !strings.Contains(sum, "csv") || !strings.Contains(sum, "1/1 served") {
		t.Errorf("summary = %q", sum)
	}
}

// TestSpecValidation rejects malformed specs.
func TestSpecValidation(t *testing.T) {
	valid := func() Spec {
		return Spec{
			Name:       "v",
			Seeds:      []Peer{{ID: "s1", Class: 1}},
			Requesters: []Peer{{ID: "r1", Class: 1}},
		}
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no seeds", func(s *Spec) { s.Seeds = nil }},
		{"no requesters", func(s *Spec) { s.Requesters = nil }},
		{"duplicate id", func(s *Spec) { s.Requesters = append(s.Requesters, Peer{ID: "s1", Class: 1}) }},
		{"dir id", func(s *Spec) { s.Seeds[0].ID = DirectoryHost }},
		{"wildcard id", func(s *Spec) { s.Seeds[0].ID = Wildcard }},
		{"bad class", func(s *Spec) { s.Requesters[0].Class = 9 }},
		{"crash unknown", func(s *Spec) { s.Churn = []ChurnEvent{{Action: Crash, Node: "ghost"}} }},
		{"leave directory", func(s *Spec) { s.Churn = []ChurnEvent{{Action: Leave, Node: DirectoryHost}} }},
		{"join taken id", func(s *Spec) { s.Churn = []ChurnEvent{{Action: Join, Node: "r1", Class: 1}} }},
		{"rejoin before crash", func(s *Spec) {
			s.Churn = []ChurnEvent{
				{At: 200 * time.Millisecond, Action: Crash, Node: "r1"},
				{At: 100 * time.Millisecond, Action: Join, Node: "r1", Class: 1},
			}
		}},
		{"rejoin twice", func(s *Spec) {
			s.Churn = []ChurnEvent{
				{At: 100 * time.Millisecond, Action: Crash, Node: "r1"},
				{At: 200 * time.Millisecond, Action: Join, Node: "r1", Class: 1},
				{At: 300 * time.Millisecond, Action: Join, Node: "r1", Class: 1},
			}
		}},
		{"rejoin bad class", func(s *Spec) {
			s.Churn = []ChurnEvent{
				{At: 100 * time.Millisecond, Action: Crash, Node: "r1"},
				{At: 200 * time.Millisecond, Action: Join, Node: "r1", Class: 9},
			}
		}},
		{"bad action", func(s *Spec) { s.Churn = []ChurnEvent{{Action: ChurnAction(99), Node: "r1"}} }},
		{"negative shards", func(s *Spec) { s.DirectoryShards = -1 }},
		{"peer claims shard host", func(s *Spec) {
			s.DirectoryShards = 3
			s.Requesters[0].ID = ShardHost(2)
		}},
		{"shard crash without shards", func(s *Spec) {
			s.Churn = []ChurnEvent{{At: time.Millisecond, Action: Crash, Node: ShardHost(1)}}
		}},
		{"shard leave", func(s *Spec) {
			s.DirectoryShards = 3
			s.Churn = []ChurnEvent{{At: time.Millisecond, Action: Leave, Node: ShardHost(1)}}
		}},
		{"shard rejoin without crash", func(s *Spec) {
			s.DirectoryShards = 3
			s.Churn = []ChurnEvent{{At: time.Millisecond, Action: Join, Node: ShardHost(1)}}
		}},
		{"shard rejoin before crash", func(s *Spec) {
			s.DirectoryShards = 3
			s.Churn = []ChurnEvent{
				{At: 200 * time.Millisecond, Action: Crash, Node: ShardHost(1)},
				{At: 100 * time.Millisecond, Action: Join, Node: ShardHost(1)},
			}
		}},
		{"shard rejoin twice", func(s *Spec) {
			s.DirectoryShards = 3
			s.Churn = []ChurnEvent{
				{At: 100 * time.Millisecond, Action: Crash, Node: ShardHost(1)},
				{At: 200 * time.Millisecond, Action: Join, Node: ShardHost(1)},
				{At: 300 * time.Millisecond, Action: Join, Node: ShardHost(1)},
			}
		}},
		{"link unknown host", func(s *Spec) { s.Links = []Link{{A: "ghost", B: Wildcard}} }},
		{"event unknown host", func(s *Spec) { s.Events = []LinkEvent{{Link: Link{A: "r1", B: "ghost"}}} }},
		{"mayfail unknown", func(s *Spec) { s.Expect.MayFail = []string{"ghost"} }},
		{"negative priority", func(s *Spec) { s.Requesters[0].Priority = -1 }},
		{"traffic no endpoint", func(s *Spec) { s.Traffic = []TrafficFlow{{From: "", To: "sink"}} }},
		{"traffic wildcard", func(s *Spec) { s.Traffic = []TrafficFlow{{From: Wildcard, To: "sink"}} }},
		{"traffic self flow", func(s *Spec) { s.Traffic = []TrafficFlow{{From: "x", To: "x"}} }},
		{"traffic peer collision", func(s *Spec) { s.Traffic = []TrafficFlow{{From: "r1", To: "sink"}} }},
		{"traffic negative rate", func(s *Spec) { s.Traffic = []TrafficFlow{{From: "a", To: "b", Rate: -1}} }},
		{"traffic negative chunk", func(s *Spec) { s.Traffic = []TrafficFlow{{From: "a", To: "b", Chunk: -1}} }},
		{"fair share below one", func(s *Spec) { s.Expect.FairShare = 0.5 }},
		{"full quality unknown", func(s *Spec) { s.Expect.FullQuality = []string{"ghost"} }},
		{"full quality traffic host", func(s *Spec) {
			s.Traffic = []TrafficFlow{{From: "a", To: "b"}}
			s.Expect.FullQuality = []string{"a"}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := valid()
			tt.mutate(&spec)
			spec = spec.withDefaults()
			if err := spec.Validate(); err == nil {
				t.Error("Validate accepted a malformed spec")
			}
		})
	}
	good := valid().withDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	rejoin := valid()
	rejoin.Churn = []ChurnEvent{
		{At: 100 * time.Millisecond, Action: Crash, Node: "r1"},
		{At: 200 * time.Millisecond, Action: Join, Node: "r1", Class: 1},
	}
	rejoin = rejoin.withDefaults()
	if err := rejoin.Validate(); err != nil {
		t.Errorf("crash-then-rejoin spec rejected: %v", err)
	}
	// The legal shard churn flow: crash any shard (host "dir" included —
	// it is shard 0 of a sharded registry), rejoin it later.
	shardChurn := valid()
	shardChurn.DirectoryShards = 3
	shardChurn.Churn = []ChurnEvent{
		{At: 50 * time.Millisecond, Action: Crash, Node: DirectoryHost},
		{At: 100 * time.Millisecond, Action: Crash, Node: ShardHost(2)},
		{At: 200 * time.Millisecond, Action: Join, Node: ShardHost(2)},
	}
	shardChurn = shardChurn.withDefaults()
	if err := shardChurn.Validate(); err != nil {
		t.Errorf("shard crash/rejoin spec rejected: %v", err)
	}
	// Leave of the directory is rejected for the action, not the backend:
	// the message must not send a chord+KeepDirectory user hunting for a
	// backend misconfiguration.
	leaveDir := valid()
	leaveDir.Discovery = BackendChord
	leaveDir.KeepDirectory = true
	leaveDir.Churn = []ChurnEvent{{Action: Leave, Node: DirectoryHost}}
	leaveDir = leaveDir.withDefaults()
	if err := leaveDir.Validate(); err == nil || !strings.Contains(err.Error(), "only Crash") {
		t.Errorf("leave-of-directory error should say only Crash is supported, got: %v", err)
	}
}

// TestCompetingMediaFlows: the congestion tentpole's headline assertion.
// Two paced media flows share one bottleneck: both downgrade at least one
// bitrate class, both play continuously, and their goodputs land within
// the 1.5x fairness envelope. The same spec re-run with NoAdapt — the
// legacy burst-on-schedule data plane — demonstrably stalls, which is the
// problem the adaptive plane exists to solve.
func TestCompetingMediaFlows(t *testing.T) {
	spec, ok := ByName("competing-media-flows")
	if !ok {
		t.Fatal("competing-media-flows not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	var lo, hi float64
	for _, n := range report.Nodes {
		if n.Err != nil {
			t.Fatalf("%s failed: %v", n.ID, n.Err)
		}
		if !n.Continuous {
			t.Errorf("%s: playback not continuous under adaptation", n.ID)
		}
		if n.Downgraded == 0 {
			t.Errorf("%s: oversubscribed flow never downgraded", n.ID)
		}
		if lo == 0 || n.ThroughputBps < lo {
			lo = n.ThroughputBps
		}
		if n.ThroughputBps > hi {
			hi = n.ThroughputBps
		}
	}
	if lo <= 0 || hi > 1.5*lo {
		t.Errorf("fairness envelope violated: goodput spread %.0f..%.0f B/s exceeds 1.5x", lo, hi)
	}

	// Control run: same flows, adaptation off. The fixed-rate bursts stand
	// on the bottleneck queue until playback misses deadlines.
	control := spec
	control.NoAdapt = true
	control.Expect = Expect{AllowStalls: true, WantCongestion: true}
	creport, err := Run(control)
	if err != nil {
		t.Fatal(err)
	}
	if err := creport.Check(); err != nil {
		t.Fatalf("control run invariants: %v\n%s", err, creport.Summary())
	}
	stalled := false
	for _, n := range creport.Nodes {
		if n.Err == nil && !n.Continuous {
			stalled = true
		}
		if n.Downgraded != 0 {
			t.Errorf("control run %s downgraded %d segments with adaptation off", n.ID, n.Downgraded)
		}
	}
	if !stalled && creport.QueueDrops == 0 {
		t.Error("control run neither stalled nor dropped: the scenario does not demonstrate congestion")
	}
}

// TestMediaVsTCPFlows: the media flow shares the bottleneck with a greedy
// elastic cross-flow. The media session keeps continuous playback by
// downgrading, and the cross-flow still gets bytes through — neither
// starves the other.
func TestMediaVsTCPFlows(t *testing.T) {
	spec, ok := ByName("media-vs-tcp-flows")
	if !ok {
		t.Fatal("media-vs-tcp-flows not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	for _, n := range report.Nodes {
		if n.Err != nil {
			t.Fatalf("%s failed: %v", n.ID, n.Err)
		}
		if !n.Continuous || n.Downgraded == 0 {
			t.Errorf("%s: want continuous playback via downgrades, got continuous=%v downgraded=%d",
				n.ID, n.Continuous, n.Downgraded)
		}
	}
	if len(report.Traffic) != 1 {
		t.Fatalf("report carries %d traffic flows, want 1", len(report.Traffic))
	}
	tr := report.Traffic[0]
	if tr.Acked == 0 || tr.Rate <= 0 {
		t.Errorf("cross traffic starved: %d B acked, %.0f B/s", tr.Acked, tr.Rate)
	}
}

// TestPriorityFlows: under shared congestion the best-effort flow steps
// down the bitrate ladder while the priority flow — whose Priority
// multiplies the downgrade sustain window past the session length —
// finishes at full quality.
func TestPriorityFlows(t *testing.T) {
	spec, ok := ByName("priority-flows")
	if !ok {
		t.Fatal("priority-flows not in catalog")
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Check(); err != nil {
		t.Fatalf("invariants: %v\n%s", err, report.Summary())
	}
	for _, n := range report.Nodes {
		if n.Err != nil {
			t.Fatalf("%s failed: %v", n.ID, n.Err)
		}
		switch n.ID {
		case "hi":
			if n.Downgraded != 0 || n.MaxQuality != 0 {
				t.Errorf("priority flow degraded: %d segments, worst quality %d", n.Downgraded, n.MaxQuality)
			}
		case "lo":
			if n.Downgraded == 0 {
				t.Error("best-effort flow never yielded")
			}
		}
		if !n.Continuous {
			t.Errorf("%s: playback not continuous", n.ID)
		}
	}
}
