package scenario

import (
	"fmt"
	"math"
	"time"

	"p2pstream/internal/media"
	"p2pstream/internal/splitmix"
)

// ZipfObjects deterministically draws n object names from a Zipf(skew)
// popularity law over names — rank 1 (names[0]) is the hottest — using a
// splitmix64 stream seeded by seed. The multi-object workload generator:
// assign result[i] to requester i and the population's demand follows the
// measured skew of real media catalogs, where a handful of objects draw
// most of the requests. Pure function of its arguments, so a spec built
// from it and a test inspecting it always agree on the cohorts.
func ZipfObjects(seed int64, names []string, n int, skew float64) []string {
	if len(names) == 0 || n <= 0 {
		return nil
	}
	// Cumulative Zipf weights: weight(rank r) = 1/r^skew.
	cum := make([]float64, len(names))
	total := 0.0
	for i := range names {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	rng := splitmix.Rand(seed)
	out := make([]string, n)
	for i := range out {
		u := rng.Float64() * total
		out[i] = names[len(names)-1]
		for j, c := range cum {
			if u < c {
				out[i] = names[j]
				break
			}
		}
	}
	return out
}

// mediaCatalog returns one object per name, each of the given number of
// 128-byte, 4 ms segments (the conformance default's segment shape).
func mediaCatalog(segments int, names ...string) []*media.File {
	out := make([]*media.File, len(names))
	for i, name := range names {
		out[i] = &media.File{Name: name, Segments: segments, SegmentBytes: 128, SegmentTime: 4 * time.Millisecond}
	}
	return out
}

// zipfPopularity runs a twelve-requester crowd over a four-object catalog
// under a Zipf(1.5) popularity law: the hot object's cohort competes for
// the same two seeds while the cold objects ride along nearly
// contention-free. Both seeds hold the whole catalog and serve up to four
// concurrent sessions across objects (the shared slot budget), so
// per-object admission stays independent: a hot-object rejection never
// blocks a cold-object grant, and the served hot cohort amplifies the hot
// object's supplier pool flash-crowd style.
func zipfPopularity() Spec {
	// Four equally sized objects (the conformance default's shape),
	// popularity-ranked v1 (hot) to v4 (cold) by the workload, not by the
	// objects themselves.
	names := []string{"v1", "v2", "v3", "v4"}
	// Seed 14 draws v1×7, v2×3, v3×1, v4×1: a dominant hot cohort with
	// every catalog object still requested at least once.
	assigned := ZipfObjects(14, names, 12, 1.5)
	reqs := make([]Peer, len(assigned))
	for i, obj := range assigned {
		reqs[i] = Peer{
			ID:      fmt.Sprintf("z%d", i),
			Class:   1,
			Start:   time.Duration(i) * 8 * time.Millisecond,
			Objects: []string{obj},
		}
	}
	return Spec{
		Name:         "zipf-popularity",
		Stresses:     "a Zipf-skewed multi-object crowd: the hot object's cohort contends while cold objects stay cheap, per-object admission fully independent",
		Objects:      mediaCatalog(16, names...),
		SessionSlots: 4,
		Seeds:        []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters:   reqs,
		MaxAttempts:  80,
		Expect:       Expect{MinAttempts: 2},
	}
}

// cacheChurn forces mid-run evictions: every node's library holds exactly
// one 1 KiB object under the 1200-byte budget, and three requesters stream
// two-object sequences — caching the second object evicts the first and
// gracefully withdraws its supplier registration. Each object has its own
// seed pair (a class-1 requester needs two class-1 suppliers), every seed
// safely within its own budget. r3 arrives last and requests "a" after
// r1 has evicted it: the withdrawal must have scrubbed r1's stale
// registration, leaving the seed pair to serve r3 — no stranded client.
func cacheChurn() Spec {
	return Spec{
		Name:     "cache-churn",
		Stresses: "bounded node caches churning mid-run: LRU eviction on the second object's completion, graceful supplier withdrawal, late arrivals served past stale registrations",
		// Three 1 KiB objects, each alone within the 1200-byte node budget
		// but any two together over it.
		Objects:      mediaCatalog(8, "a", "b", "c"),
		CacheBudget:  1200,
		SessionSlots: 2,
		Seeds: []Peer{
			{ID: "sa1", Class: 1, Held: []string{"a"}}, {ID: "sa2", Class: 1, Held: []string{"a"}},
			{ID: "sb1", Class: 1, Held: []string{"b"}}, {ID: "sb2", Class: 1, Held: []string{"b"}},
			{ID: "sc1", Class: 1, Held: []string{"c"}}, {ID: "sc2", Class: 1, Held: []string{"c"}},
		},
		Requesters: []Peer{
			{ID: "r1", Class: 1, Start: 0, Objects: []string{"a", "b"}},
			{ID: "r2", Class: 1, Start: 30 * time.Millisecond, Objects: []string{"b", "c"}},
			{ID: "r4", Class: 1, Start: 60 * time.Millisecond, Objects: []string{"c", "a"}},
			{ID: "r3", Class: 1, Start: 120 * time.Millisecond, Objects: []string{"a"}},
		},
		Expect: Expect{MinEvictions: 2, MinWithdrawals: 2},
	}
}
