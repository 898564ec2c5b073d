package scenario

import (
	"strings"
	"testing"
	"time"

	"p2pstream/internal/media"
	"p2pstream/internal/observe"
)

// TestZipfObjects: the workload generator is a pure function (same
// arguments, same draw), respects the rank order on aggregate (the hot
// object draws the plurality), and only ever returns declared names.
func TestZipfObjects(t *testing.T) {
	names := []string{"hot", "warm", "cool", "cold"}
	a := ZipfObjects(42, names, 400, 1.5)
	b := ZipfObjects(42, names, 400, 1.5)
	if len(a) != 400 {
		t.Fatalf("draw length = %d, want 400", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical calls: %q vs %q", i, a[i], b[i])
		}
	}
	counts := map[string]int{}
	for _, name := range a {
		if name != "hot" && name != "warm" && name != "cool" && name != "cold" {
			t.Fatalf("drew undeclared object %q", name)
		}
		counts[name]++
	}
	// Zipf(1.5) over 4 ranks gives the hot object ~59% of the mass; at 400
	// draws the plurality is overwhelming.
	for _, name := range names[1:] {
		if counts["hot"] <= counts[name] {
			t.Errorf("hot drew %d, %s drew %d: popularity order inverted", counts["hot"], name, counts[name])
		}
	}
	if ZipfObjects(1, nil, 5, 1.5) != nil || ZipfObjects(1, names, 0, 1.5) != nil {
		t.Error("degenerate draws should be nil")
	}
}

// TestObjectSpecValidation pins the rejection message of each malformed
// multi-object spec: a typo in a workload object name or an impossible
// budget must fail loudly at Validate, not strand a requester mid-run.
func TestObjectSpecValidation(t *testing.T) {
	obj := func(name string) *media.File {
		return &media.File{Name: name, Segments: 4, SegmentBytes: 128, SegmentTime: time.Millisecond}
	}
	valid := func() Spec {
		return Spec{
			Name:       "v",
			Objects:    []*media.File{obj("a"), obj("b")},
			Seeds:      []Peer{{ID: "s1", Class: 1, Held: []string{"a"}}},
			Requesters: []Peer{{ID: "r1", Class: 1, Objects: []string{"a"}}},
		}
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"undeclared request", func(s *Spec) {
			s.Requesters[0].Objects = []string{"z"}
		}, `requester r1 requests undeclared object "z"`},
		{"empty request name", func(s *Spec) {
			s.Requesters[0].Objects = []string{""}
		}, `requester r1 requests undeclared object ""`},
		{"undeclared held", func(s *Spec) {
			s.Seeds[0].Held = []string{"z"}
		}, `seed s1 holds undeclared object "z"`},
		{"duplicate object", func(s *Spec) {
			s.Objects = append(s.Objects, obj("a"))
		}, `duplicate object "a"`},
		{"object exceeds budget", func(s *Spec) {
			s.CacheBudget = 256 // object "a" is 4×128 = 512 bytes
		}, `object "a" (512 bytes) exceeds cache budget 256`},
		{"file and objects", func(s *Spec) {
			s.File = obj("solo")
		}, "set File or Objects, not both"},
		{"nil object", func(s *Spec) {
			s.Objects = append(s.Objects, nil)
		}, "nil object in catalog"},
		{"invalid object", func(s *Spec) {
			s.Objects[0].Segments = 0
		}, `object "a"`},
		{"negative budget", func(s *Spec) {
			s.CacheBudget = -1
		}, "CacheBudget -1"},
		{"negative slots", func(s *Spec) {
			s.SessionSlots = -1
		}, "SessionSlots -1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := valid()
			tt.mutate(&spec)
			spec = spec.withDefaults()
			err := spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed multi-object spec")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %q, want it to contain %q", err, tt.want)
			}
		})
	}
	good := valid().withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid multi-object spec rejected: %v", err)
	}
}

// cohortStats aggregates one request cohort's admission economics.
type cohortStats struct {
	n        int
	attempts int
	latency  time.Duration
}

func (c cohortStats) meanAttempts() float64 {
	return float64(c.attempts) / float64(c.n)
}

func (c cohortStats) meanLatency() time.Duration {
	return c.latency / time.Duration(c.n)
}

// rejectionRate is rejected attempts over total attempts across the
// cohort (0 = everyone admitted first try).
func (c cohortStats) rejectionRate() float64 {
	return float64(c.attempts-c.n) / float64(c.attempts)
}

// zipfPopularityDetails: the zipf-popularity run must actually split
// by popularity — the hot object's cohort pays admission latency and
// rejections that the cold cohort does not, while per-object registries
// end the run with the hot object's supplier pool grown past the cold
// ones' (every served requester re-supplies its object).
func zipfPopularityDetails(t *testing.T, spec Spec, report *Report) {
	hot := spec.Objects[0].Name
	// Cohorts come from the spec's own Zipf draw (recorded in each
	// requester's object sequence), so the test and the spec cannot drift.
	var hotC, coldC cohortStats
	coldPerObject := map[string]int{}
	for _, p := range spec.Requesters {
		res := report.Node(p.ID)
		if res == nil || res.Err != nil {
			t.Fatalf("requester %s unserved: %+v", p.ID, res)
		}
		c := &coldC
		if p.Objects[0] == hot {
			c = &hotC
		} else {
			coldPerObject[p.Objects[0]]++
		}
		c.n++
		c.attempts += res.Attempts
		c.latency += res.Done - res.Start
	}
	if hotC.n == 0 || coldC.n == 0 {
		t.Fatalf("degenerate cohorts: hot %d, cold %d", hotC.n, coldC.n)
	}
	for obj, n := range coldPerObject {
		if hotC.n <= n {
			t.Errorf("hot cohort (%d) not larger than %s's (%d): the draw is not Zipf-shaped", hotC.n, obj, n)
		}
	}
	// The split: contention concentrates on the hot object.
	if hotC.meanAttempts() <= coldC.meanAttempts() {
		t.Errorf("hot cohort mean attempts %.2f <= cold %.2f: no popularity split",
			hotC.meanAttempts(), coldC.meanAttempts())
	}
	if hotC.rejectionRate() <= coldC.rejectionRate() {
		t.Errorf("hot cohort rejection rate %.3f <= cold %.3f: no popularity split",
			hotC.rejectionRate(), coldC.rejectionRate())
	}
	if hotC.meanLatency() <= coldC.meanLatency() {
		t.Errorf("hot cohort mean admission latency %v <= cold %v: no popularity split",
			hotC.meanLatency(), coldC.meanLatency())
	}
	// Per-object supplier registries: every object keeps its two seeds, and
	// the hot object's pool grew past every cold object's.
	if len(report.ObjectSuppliers) != len(spec.Objects) {
		t.Fatalf("ObjectSuppliers = %v, want all %d objects", report.ObjectSuppliers, len(spec.Objects))
	}
	for _, f := range spec.Objects {
		if report.ObjectSuppliers[f.Name] < len(spec.Seeds) {
			t.Errorf("object %s ended with %d suppliers, want >= the %d seeds",
				f.Name, report.ObjectSuppliers[f.Name], len(spec.Seeds))
		}
		if f.Name != hot && report.ObjectSuppliers[hot] <= report.ObjectSuppliers[f.Name] {
			t.Errorf("hot object %s has %d suppliers, %s has %d: served cohorts should grow the hot pool most",
				hot, report.ObjectSuppliers[hot], f.Name, report.ObjectSuppliers[f.Name])
		}
	}
	if sum := report.Summary(); !strings.Contains(sum, "suppliers by object:") {
		t.Errorf("summary misses the per-object supplier counts:\n%s", sum)
	}
	t.Logf("hot cohort (%d peers): %.2f mean attempts, %.0f%% rejection, %v mean latency; "+
		"cold cohorts (%d peers): %.2f mean attempts, %.0f%% rejection, %v mean latency",
		hotC.n, hotC.meanAttempts(), 100*hotC.rejectionRate(), hotC.meanLatency().Round(time.Millisecond),
		coldC.n, coldC.meanAttempts(), 100*coldC.rejectionRate(), coldC.meanLatency().Round(time.Millisecond))
}

// cacheChurnDetails: the cache-churn run must evict mid-run (each
// two-object requester's second completion pushes its library over
// budget), withdraw every evicted object's supplier registration
// gracefully, and still serve every client — including r3, which requests
// "a" after r1 evicted it, proving the stale registration was scrubbed.
func cacheChurnDetails(t *testing.T, spec Spec, report *Report) {
	// Zero stranded clients: every requester of the workload completed,
	// evictions notwithstanding.
	for _, p := range spec.Requesters {
		res := report.Node(p.ID)
		if res == nil {
			t.Fatalf("requester %s missing from the report", p.ID)
		}
		if res.Err != nil {
			t.Fatalf("requester %s stranded: %v", p.ID, res.Err)
		}
		if last := p.Objects[len(p.Objects)-1]; res.Object != last {
			t.Errorf("requester %s recorded object %q, want its sequence's last %q", p.ID, res.Object, last)
		}
	}
	// The three two-object requesters each overflow their budget once.
	evictions := report.Events.Of(observe.ObjectEvicted).N
	withdrawals := report.Events.Of(observe.SupplierWithdrawn).N
	if evictions < 3 {
		t.Errorf("%d evictions, want >= 3 (r1, r2 and r4 each cache past their budget)", evictions)
	}
	if withdrawals < 3 {
		t.Errorf("%d withdrawals, want >= 3 (each eviction withdraws a live supplier registration)", withdrawals)
	}
	if withdrawals > evictions {
		t.Errorf("%d withdrawals > %d evictions: withdrew more than was evicted", withdrawals, evictions)
	}
	// The eviction series rides the shared axis: the last completion's
	// snapshot carries the run's churn.
	if n := report.Evictions.Len(); n == 0 {
		t.Fatal("evictions series empty")
	} else if last := report.Evictions.Values[n-1]; last < 3 {
		t.Errorf("final eviction snapshot = %.0f, want >= 3", last)
	}
	// Per-object registries survive the churn: every object ends with its
	// seed pair at least (withdrawals scrub requester registrations only —
	// seeds hold one in-budget object each and never evict).
	for _, f := range spec.Objects {
		if report.ObjectSuppliers[f.Name] < 2 {
			t.Errorf("object %s ended with %d suppliers, want >= its seed pair", f.Name, report.ObjectSuppliers[f.Name])
		}
	}
	// r3 requests "a" long after r1 evicted it; the scrubbed registration
	// must not have fed r3 a supplier that no longer holds the object.
	r3 := report.Node("r3")
	for _, sup := range r3.Suppliers {
		if sup == "r1" {
			t.Errorf("r3 was served by r1, which evicted %q before r3 arrived", "a")
		}
	}
}
