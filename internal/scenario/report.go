package scenario

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/directory"
	"p2pstream/internal/metrics"
	"p2pstream/internal/node"
	"p2pstream/internal/observe"
)

// NodeResult is one requester's outcome.
type NodeResult struct {
	ID    string
	Class bandwidth.Class
	// Object is the media object this requester streamed (the last of its
	// sequence, for a peer declaring several); empty in single-object
	// runs.
	Object string
	// Start and Done are the virtual instants (from the run start) of the
	// peer's first request and of its completion or abandonment.
	Start, Done time.Duration
	// Attempts counts Request calls (1 = admitted first try).
	Attempts int
	// Err is nil when the peer was served.
	Err error
	// Session is the successful session's report (nil when unserved).
	Session *node.SessionReport
	// Suppliers lists the serving peers' IDs, high class first.
	Suppliers []string
	// Invariants, evaluated at completion: the peer supplies, playback
	// was continuous, the buffering delay matched Theorem 1's n·δt, and
	// the store is byte-exact and complete.
	Supplying  bool
	Continuous bool
	TheoremOK  bool
	StoreOK    bool
	// SupplierLevel is the discovery substrate's supplier count right
	// after this peer completed: the directory's registry size (live
	// shards summed when sharded), or under chord discovery the harness
	// census (seeds plus served requesters minus graceful leavers —
	// crashed peers stay counted, the same staleness the directory
	// exhibits).
	SupplierLevel int
	// Lookups, LookupHops and SampleRounds snapshot the peer's chord
	// discovery-cost counters at completion: key lookups issued, total
	// routing hops they cost, and candidate sample rounds executed. Zero
	// under the directory backends (one round trip per lookup, no hops).
	Lookups, LookupHops, SampleRounds int64
	// Events snapshots the run's event tally (across all components, not
	// this peer's alone) at this peer's completion; the cumulative series
	// — shard fan-out, evictions, epoch flips, migrated registrations —
	// are sampled from it.
	Events observe.Snapshot
	// Downgraded counts segments that arrived below full quality, and
	// MaxQuality is the deepest bitrate class any of them reached — the
	// suppliers' ABR ladder as this requester experienced it.
	Downgraded int
	MaxQuality int
	// ThroughputBps is the session's goodput: payload bytes over the
	// session's duration on the requester's clock.
	ThroughputBps float64
}

// TrafficResult is one cross-traffic flow's outcome.
type TrafficResult struct {
	From, To string
	// Bytes is what the flow wrote; Acked is what the sink confirmed.
	Bytes, Acked int64
	// Rate is the flow's achieved delivery rate in bytes/second over its
	// active window (zero if the flow never got going).
	Rate float64
}

// Report is the outcome of one scenario run.
type Report struct {
	Spec Spec
	// Nodes holds every requester's result in completion order (ties
	// broken by ID).
	Nodes []NodeResult
	// Elapsed is the virtual time from run start to the last completion.
	Elapsed time.Duration
	// FinalSuppliers is the discovery substrate's supplier count at the
	// end (live shards summed when the directory is sharded).
	FinalSuppliers int
	// ShardSuppliers is each registry shard's final supplier count under
	// the directory backend (a crashed shard counts 0); nil under chord.
	ShardSuppliers []int
	// ShardStats is each registry shard's final server counters
	// (registers, refreshes, unregisters, lookups; zero for a shard that
	// ended the run crashed); nil unless the registry is sharded.
	ShardStats []directory.Stats
	// Dials counts every virtual connection dialed during the run — the
	// connection-reuse odometer (persistent transport clients keep it far
	// below one dial per exchange).
	Dials int64
	// SeedBootDials counts the dials expended booting the seed population.
	// Against the single centralized directory the harness registers every
	// seed in one batched round, so this stays O(1) instead of one dial
	// per seed.
	SeedBootDials int64
	// Events is the run's final event tally: every observe.Event any
	// component emitted — nodes, discovery clients, chord peers, the reshard
	// controller — counted per type (events, failed events, summed Count,
	// summed and slowest Latency). Every event-count expectation reads it:
	// Events.Of(observe.ObjectEvicted).N evictions, Of(LookupMiss).N empty
	// lookups, Of(ShardLookup).Errs failed fan-out legs, Of(ReshardMove).Sum
	// migrated registrations and .MaxLatency the slowest flip convergence.
	Events observe.Snapshot
	// ObjectSuppliers is the final per-object supplier registration count
	// from the directory registries in multi-object mode; nil otherwise
	// (the chord census does not split by object).
	ObjectSuppliers map[string]int
	// LostRegistrations lists the live suppliers whose registration the
	// end-of-run zero-loss audit could not find on the owning shard of the
	// final epoch's ring (id, or id/object in multi-object mode); nil when
	// the registry is not elastic or nothing was lost.
	LostRegistrations []string
	// QueueDrops counts chunks tail-dropped at bandwidth-limited link
	// queues — congestion the data plane failed to avoid.
	QueueDrops int64
	// Traffic is each cross-traffic flow's outcome, in spec order; nil
	// when the scenario declares none.
	Traffic []TrafficResult

	// Time series over the served requesters' completion instants, all on
	// one shared axis (WriteCSV emits them together): admission latency
	// and buffering delay in milliseconds, admission attempts, the
	// supplier count — and, for chord-backed runs, the discovery cost
	// (cumulative lookup hops and sample rounds per peer; blank samples
	// under the directory backends, which spend one round trip instead).
	Admission *metrics.Series
	Tries     *metrics.Series
	Buffering *metrics.Series
	Suppliers *metrics.Series
	// LookupHops and SampleRounds chart chord routing cost alongside
	// admission latency (the ROADMAP's discovery-metrics item).
	LookupHops   *metrics.Series
	SampleRounds *metrics.Series
	// ShardLookupMs and ShardFailures chart the sharded directory's
	// fan-out cost on the same axis (the ROADMAP's sharded-metrics item):
	// mean per-leg lookup latency so far, and cumulative failed legs —
	// blank samples under the unsharded backends.
	ShardLookupMs *metrics.Series
	ShardFailures *metrics.Series
	// Downgrades and Throughput chart the congestion-aware data plane on
	// the same axis: segments each served requester received below full
	// quality, and its session goodput in bytes/second.
	Downgrades *metrics.Series
	Throughput *metrics.Series
	// Evictions charts the run's cumulative cache-eviction count at each
	// completion on the same axis — flat zero unless a bounded library
	// churned.
	Evictions *metrics.Series
	// Epochs and Moves chart the elastic registry on the same axis: the
	// cumulative resharding-epoch flips and migrated registrations at each
	// completion — flat zero unless the registry autoscaled.
	Epochs *metrics.Series
	Moves  *metrics.Series

	// Population-scale distributions over the served requesters (quantiles,
	// not means — at megacrowd scale the admission story lives in the
	// tail): admission latency in milliseconds, and the per-peer rejection
	// rate (rejected attempts / total attempts; 0 = admitted first try).
	AdmissionDist *metrics.Distribution
	RejectionDist *metrics.Distribution
	// AdmissionQuantiles and RejectionQuantiles chart the running p50, p90
	// and p99 of those distributions over completion time, on a shared
	// checkpoint axis of at most quantileCheckpoints samples
	// (WriteQuantilesCSV emits them as one table).
	AdmissionQuantiles []*metrics.Series
	RejectionQuantiles []*metrics.Series
}

// quantileCheckpoints bounds the running-quantile axis so a 100k-requester
// run charts its tail trajectory without a per-sample sort.
const quantileCheckpoints = 128

// buildSeries sorts the per-requester results into completion order and
// derives the report's series and distributions from them.
func (r *Report) buildSeries() {
	sortResults(r.Nodes)
	r.Admission = &metrics.Series{Name: "admission_ms"}
	r.Tries = &metrics.Series{Name: "attempts"}
	r.Buffering = &metrics.Series{Name: "buffering_ms"}
	r.Suppliers = &metrics.Series{Name: "suppliers"}
	r.LookupHops = &metrics.Series{Name: "lookup_hops"}
	r.SampleRounds = &metrics.Series{Name: "sample_rounds"}
	r.ShardLookupMs = &metrics.Series{Name: "shard_lookup_ms"}
	r.ShardFailures = &metrics.Series{Name: "shard_failures"}
	r.Downgrades = &metrics.Series{Name: "downgraded"}
	r.Throughput = &metrics.Series{Name: "throughput_bps"}
	r.Evictions = &metrics.Series{Name: "evictions"}
	r.Epochs = &metrics.Series{Name: "epoch_flips"}
	r.Moves = &metrics.Series{Name: "reshard_moves"}
	r.AdmissionDist = metrics.NewDistribution("admission_ms")
	r.RejectionDist = metrics.NewDistribution("rejection_rate")
	chord := r.Spec.Discovery == BackendChord
	sharded := len(r.ShardStats) > 1
	elastic := r.Spec.Autoscale != nil
	var rejectionRates []float64
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Err != nil {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		r.Admission.Add(n.Done, ms(n.Done-n.Start))
		r.Tries.Add(n.Done, float64(n.Attempts))
		r.AdmissionDist.Observe(ms(n.Done - n.Start))
		rate := 0.0
		if n.Attempts > 1 {
			rate = float64(n.Attempts-1) / float64(n.Attempts)
		}
		r.RejectionDist.Observe(rate)
		rejectionRates = append(rejectionRates, rate)
		r.Buffering.Add(n.Done, ms(n.Session.MeasuredDelay))
		r.Suppliers.Add(n.Done, float64(n.SupplierLevel))
		if chord {
			r.LookupHops.Add(n.Done, float64(n.LookupHops))
			r.SampleRounds.Add(n.Done, float64(n.SampleRounds))
		} else {
			// Directory lookups cost one round trip, not routed hops; keep
			// the axis shared with blanks so the CSV stays one table.
			r.LookupHops.AddMissing(n.Done)
			r.SampleRounds.AddMissing(n.Done)
		}
		if legs := n.Events.Of(observe.ShardLookup); sharded && legs.N > 0 {
			r.ShardLookupMs.Add(n.Done, float64(legs.Latency)/float64(legs.N)/float64(time.Millisecond))
			r.ShardFailures.Add(n.Done, float64(legs.Errs))
		} else {
			r.ShardLookupMs.AddMissing(n.Done)
			r.ShardFailures.AddMissing(n.Done)
		}
		r.Downgrades.Add(n.Done, float64(n.Downgraded))
		r.Throughput.Add(n.Done, n.ThroughputBps)
		r.Evictions.Add(n.Done, float64(n.Events.Of(observe.ObjectEvicted).N))
		if elastic {
			r.Epochs.Add(n.Done, float64(n.Events.Of(observe.EpochFlip).N))
			r.Moves.Add(n.Done, float64(n.Events.Of(observe.ReshardMove).Sum))
		} else {
			// Same one-table CSV treatment as the shard columns: a static
			// registry has no epochs, so the columns stay blank.
			r.Epochs.AddMissing(n.Done)
			r.Moves.AddMissing(n.Done)
		}
	}
	qs := []float64{0.5, 0.9, 0.99}
	r.AdmissionQuantiles = metrics.QuantileSeries("admission_ms", r.Admission.Times, r.Admission.Values, quantileCheckpoints, qs...)
	r.RejectionQuantiles = metrics.QuantileSeries("rejection_rate", r.Admission.Times, rejectionRates, quantileCheckpoints, qs...)
}

// Served returns how many requesters completed their session.
func (r *Report) Served() int {
	n := 0
	for _, res := range r.Nodes {
		if res.Err == nil {
			n++
		}
	}
	return n
}

// Node returns the result of the named requester, or nil.
func (r *Report) Node(id string) *NodeResult {
	for i := range r.Nodes {
		if r.Nodes[i].ID == id {
			return &r.Nodes[i]
		}
	}
	return nil
}

// Check verifies the scenario's invariants: every requester outside
// Expect.MayFail was served, and every served requester ended with a
// byte-exact store, continuous playback, the Theorem 1 buffering delay,
// and a seat as a supplying peer. It returns the first violation.
func (r *Report) Check() error {
	served, maxAttempts := 0, 0
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Err != nil {
			if !slices.Contains(r.Spec.Expect.MayFail, n.ID) {
				return fmt.Errorf("scenario %s: requester %s unserved after %d attempts: %w",
					r.Spec.Name, n.ID, n.Attempts, n.Err)
			}
			continue
		}
		served++
		// Only served peers witness contention; an exempted failure's
		// exhausted budget must not satisfy the MinAttempts floor.
		if n.Attempts > maxAttempts {
			maxAttempts = n.Attempts
		}
		switch {
		case !n.StoreOK:
			return fmt.Errorf("scenario %s: requester %s store incomplete or corrupted", r.Spec.Name, n.ID)
		case !n.Continuous && !r.Spec.Expect.AllowStalls:
			return fmt.Errorf("scenario %s: requester %s playback stalled %d times",
				r.Spec.Name, n.ID, n.Session.Report.Stalls)
		case !n.TheoremOK:
			dt := time.Duration(0)
			if f := r.Spec.objectFile(n.Object); f != nil {
				dt = f.SegmentTime
			}
			return fmt.Errorf("scenario %s: requester %s delay %v violates Theorem 1 (n=%d, δt=%v)",
				r.Spec.Name, n.ID, n.Session.TheoreticalDelay, len(n.Suppliers), dt)
		case !n.Supplying:
			return fmt.Errorf("scenario %s: requester %s served but not supplying", r.Spec.Name, n.ID)
		}
	}
	if served == 0 {
		return fmt.Errorf("scenario %s: no requester was served", r.Spec.Name)
	}
	if min := r.Spec.Expect.MinAttempts; min > 0 && maxAttempts < min {
		return fmt.Errorf("scenario %s: max admission attempts %d, expected contention >= %d",
			r.Spec.Name, maxAttempts, min)
	}
	return r.checkEvents()
}

// checkEvents verifies the expectations stated over the run's event tally:
// floors on how often a mechanism must have engaged, and the zero-tolerance
// clauses of the discovery plane.
func (r *Report) checkEvents() error {
	exp, ev := r.Spec.Expect, r.Events
	for _, floor := range []struct {
		min    int
		typ    observe.Type
		unless string
	}{
		{exp.MinEvictions, observe.ObjectEvicted, "the bounded libraries never churned"},
		{exp.MinWithdrawals, observe.SupplierWithdrawn, "no eviction withdrew a supplier registration"},
		{exp.MinReplicaAnswered, observe.ReplicaAnswered, "the fail-over path never ran"},
		{exp.MinEpochFlips, observe.EpochFlip, "the elastic registry never scaled"},
	} {
		if got := ev.Of(floor.typ).N; got < int64(floor.min) {
			return fmt.Errorf("scenario %s: %d %s events, expected >= %d (%s)",
				r.Spec.Name, got, floor.typ, floor.min, floor.unless)
		}
	}
	if misses := ev.Of(observe.LookupMiss).N; exp.NoLookupMisses && misses > 0 {
		return fmt.Errorf("scenario %s: %d candidate lookups came up empty — the churn window opened",
			r.Spec.Name, misses)
	}
	if dialed := ev.Of(observe.TriggerDial).N; exp.NoTriggerDials && dialed > 0 {
		return fmt.Errorf("scenario %s: %d triggers dialed their supplier — a granted probe's line was not kept, or died",
			r.Spec.Name, dialed)
	}
	if exp.NoLostRegistrations && len(r.LostRegistrations) > 0 {
		return fmt.Errorf("scenario %s: %d registrations lost across resharding epochs: %v",
			r.Spec.Name, len(r.LostRegistrations), r.LostRegistrations)
	}
	if max := exp.MaxFlipConvergence; max > 0 {
		moves := ev.Of(observe.ReshardMove)
		if moves.Sum == 0 {
			return fmt.Errorf("scenario %s: MaxFlipConvergence set but no epoch migration ran", r.Spec.Name)
		}
		if moves.MaxLatency > max {
			return fmt.Errorf("scenario %s: slowest flip convergence %v exceeds %v",
				r.Spec.Name, moves.MaxLatency, max)
		}
	}
	if failed := ev.Of(observe.ShardLookup).Errs; exp.NoFailedShardLegs && failed > 0 {
		return fmt.Errorf("scenario %s: %d candidate fan-out legs failed — a requester reached a drained shard",
			r.Spec.Name, failed)
	}
	return r.checkDataPlane()
}

// checkDataPlane verifies the congestion-control half of the acceptance
// envelope: throughput fairness, bitrate-ladder engagement, priority
// protection and — for control runs — that congestion actually showed. One
// walk over the served requesters gathers what the clauses read.
func (r *Report) checkDataPlane() error {
	exp := r.Spec.Expect
	var minBps, maxBps float64
	var minID, maxID string
	downgraded, stalled := 0, false
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.Err != nil {
			continue
		}
		if n.Downgraded > 0 {
			downgraded++
		}
		stalled = stalled || !n.Continuous
		if n.ThroughputBps <= 0 {
			continue
		}
		if minID == "" || n.ThroughputBps < minBps {
			minBps, minID = n.ThroughputBps, n.ID
		}
		if maxID == "" || n.ThroughputBps > maxBps {
			maxBps, maxID = n.ThroughputBps, n.ID
		}
	}
	if exp.FairShare > 0 && minID == "" {
		return fmt.Errorf("scenario %s: FairShare set but no session recorded throughput", r.Spec.Name)
	}
	if exp.FairShare > 0 && maxBps > exp.FairShare*minBps {
		return fmt.Errorf("scenario %s: unfair shares: %s at %.0f B/s vs %s at %.0f B/s (ratio %.2f > %.2f)",
			r.Spec.Name, maxID, maxBps, minID, minBps, maxBps/minBps, exp.FairShare)
	}
	if downgraded < exp.MinDowngraded {
		return fmt.Errorf("scenario %s: %d requesters saw downgraded segments, expected >= %d (the bitrate ladder never engaged)",
			r.Spec.Name, downgraded, exp.MinDowngraded)
	}
	for _, id := range exp.FullQuality {
		n := r.Node(id)
		if n == nil || n.Err != nil {
			return fmt.Errorf("scenario %s: FullQuality requester %s was not served", r.Spec.Name, id)
		}
		if n.Downgraded > 0 {
			return fmt.Errorf("scenario %s: requester %s received %d downgraded segments (deepest class %d), expected full quality",
				r.Spec.Name, id, n.Downgraded, n.MaxQuality)
		}
	}
	if exp.WantCongestion && !stalled && r.QueueDrops == 0 {
		return fmt.Errorf("scenario %s: expected visible congestion, but no playback stalled and no queue dropped", r.Spec.Name)
	}
	return nil
}

// Summary renders a human-readable digest of the run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d/%d served, %v virtual, suppliers %d",
		r.Spec.Name, r.Served(), len(r.Nodes), r.Elapsed.Round(time.Millisecond), r.FinalSuppliers)
	if mean, ok := meanOf(r.Admission); ok {
		max, _ := r.Admission.Max()
		fmt.Fprintf(&b, "\n  admission latency: mean %.1fms, max %.1fms", mean, max)
	}
	if r.AdmissionDist.Count() > 0 {
		fmt.Fprintf(&b, "\n  %s", r.AdmissionDist.Summary())
		fmt.Fprintf(&b, "\n  %s", r.RejectionDist.Summary())
	}
	if max, ok := r.Tries.Max(); ok {
		fmt.Fprintf(&b, "\n  admission attempts: max %.0f", max)
	}
	if mean, ok := meanOf(r.Buffering); ok {
		fmt.Fprintf(&b, "\n  buffering delay: mean %.2fms", mean)
	}
	if mean, ok := meanOf(r.LookupHops); ok {
		rounds, _ := meanOf(r.SampleRounds)
		fmt.Fprintf(&b, "\n  chord discovery cost: mean %.1f hops, %.1f sample rounds per peer", mean, rounds)
	}
	if len(r.ShardSuppliers) > 1 {
		fmt.Fprintf(&b, "\n  suppliers by shard: %v", r.ShardSuppliers)
	}
	if mean, ok := meanOf(r.ShardLookupMs); ok {
		fails, _ := r.ShardFailures.Last()
		fmt.Fprintf(&b, "\n  shard fan-out: mean %.2fms per leg, %.0f failed legs", mean, fails)
	}
	if moves := r.Events.Of(observe.ReshardMove); r.Events.Of(observe.EpochFlip).N > 0 {
		fmt.Fprintf(&b, "\n  elastic registry: %d migrated registrations, slowest convergence %v, %d lost",
			moves.Sum, moves.MaxLatency.Round(time.Microsecond), len(r.LostRegistrations))
	}
	for i, st := range r.ShardStats { // nil unless the registry is sharded
		fmt.Fprintf(&b, "\n  shard %d stats: %d registers, %d refreshes, %d unregisters, %d lookups",
			i, st.Registers, st.Refreshes, st.Unregisters, st.Lookups)
	}
	if len(r.ObjectSuppliers) > 0 {
		fmt.Fprintf(&b, "\n  suppliers by object:")
		for _, name := range slices.Sorted(maps.Keys(r.ObjectSuppliers)) {
			fmt.Fprintf(&b, " %s=%d", name, r.ObjectSuppliers[name])
		}
	}
	if events := r.Events.String(); events != "" {
		fmt.Fprintf(&b, "\n  events: %s", events)
	}
	if mean, ok := meanOf(r.Throughput); ok {
		downgrades, _ := meanOf(r.Downgrades)
		fmt.Fprintf(&b, "\n  data plane: mean goodput %.0f B/s, mean %.1f downgraded segments, %d queue drops, %d dials",
			mean, downgrades, r.QueueDrops, r.Dials)
	}
	for _, tf := range r.Traffic {
		fmt.Fprintf(&b, "\n  cross traffic %s->%s: %d B sent, %d B acked, %.0f B/s",
			tf.From, tf.To, tf.Bytes, tf.Acked, tf.Rate)
	}
	for _, n := range r.Nodes {
		if n.Err != nil {
			fmt.Fprintf(&b, "\n  unserved %s: %v", n.ID, n.Err)
		}
	}
	return b.String()
}

// WriteCSV emits the report's series (time axis in milliseconds). The
// discovery-cost columns are blank under the directory backends.
func (r *Report) WriteCSV(w io.Writer) error {
	return metrics.WriteCSVIn(w, "ms", time.Millisecond,
		r.Admission, r.Tries, r.Buffering, r.Suppliers, r.LookupHops, r.SampleRounds,
		r.ShardLookupMs, r.ShardFailures, r.Downgrades, r.Throughput, r.Evictions,
		r.Epochs, r.Moves)
}

// WriteQuantilesCSV emits the running admission-latency and rejection-rate
// quantile trajectories (p50/p90/p99, time axis in milliseconds) — the
// population-scale view of the flash-crowd tail.
func (r *Report) WriteQuantilesCSV(w io.Writer) error {
	series := append(append([]*metrics.Series{}, r.AdmissionQuantiles...), r.RejectionQuantiles...)
	return metrics.WriteCSVIn(w, "ms", time.Millisecond, series...)
}

func meanOf(s *metrics.Series) (float64, bool) {
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		if !s.Missing(i) {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
