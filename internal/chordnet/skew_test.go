package chordnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"p2pstream/internal/chord"
)

// skewVirtualNodes is the V the skew measurement runs with; 128 positions
// per member flatten the true per-member arc spread on this 32-member
// membership to ~1.38x (one ring position per member leaves ~75x).
const skewVirtualNodes = 128

// TestSamplingSkewArcProportional measures the candidate-sampling skew of
// random-key lookups on a 32-member wire-level ring under the virtual
// clock, with every member claiming V=128 virtual positions (ROADMAP:
// "Random-key sampling hits suppliers proportionally to arc length, not
// uniformly; measure the skew at scale" — and, since the virtual-node
// flattening landed, keep it flat).
//
// A member is answered for the arcs preceding each of its V registration
// records, so N random draws hit it Binomial(N, arcs/2^64) times. The
// test draws N keys from a fixed seed (deterministic under -count=2
// -shuffle=on), routes each as a full lookup, and asserts every member's
// hit count within a 5-sigma binomial envelope of its virtual-arc
// expectation — plus the headline assertion: the min/max hit-rate spread
// stays within 2x, where the single-position ring measured ~75x. The
// logged histogram documents the flattening.
func TestSamplingSkewArcProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-lookup measurement")
	}
	f := newFixture(t)
	f.virtualNodes = skewVirtualNodes
	const members = 32
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		f.addMember(names[i], 1)
	}
	f.waitFor(func() bool { return ringHealthy(f.peers, names) }, "32-member stabilization")

	// Ground truth: each member's summed arc length over its virtual
	// positions.
	type pos struct {
		id   uint64
		name string
	}
	ps := make([]pos, 0, members*skewVirtualNodes)
	for _, n := range names {
		for v := 0; v < skewVirtualNodes; v++ {
			ps = append(ps, pos{chord.VirtualPosition(n, v), n})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	arc := make(map[string]float64, members)
	for i, p := range ps {
		prev := ps[(i-1+len(ps))%len(ps)].id
		arc[p.name] += float64(p.id-prev) / math.Pow(2, 64) // uint64 wrap-around
	}

	// Records settle before the measurement: every virtual position must
	// be stored at its topological owner (registrations that raced the
	// ring's growth migrate there via forwarding and join-time range
	// pulls).
	f.waitFor(func() bool {
		for _, p := range ps {
			if _, ok := f.peers[ownerOf(names, p.id)].stored(p.id); !ok {
				return false
			}
		}
		return true
	}, "virtual-position records to settle at their owners")

	const draws = 4096
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, draws)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	hits := make(map[string]int, members)
	var mu sync.Mutex
	var wg sync.WaitGroup
	from := f.peers[names[0]]
	const parallel = 32
	for w := 0; w < parallel; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < draws; i += parallel {
				owner, err := from.LookupKey(ctx, keys[i])
				if err != nil {
					t.Errorf("draw %d: %v", i, err)
					return
				}
				mu.Lock()
				hits[owner.Name]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	var b strings.Builder
	minRate, maxRate := math.Inf(1), 0.0
	for _, n := range names {
		exp := draws * arc[n]
		sigma := math.Sqrt(draws * arc[n] * (1 - arc[n]))
		got := float64(hits[n])
		if dev := math.Abs(got - exp); dev > 5*sigma+1 {
			t.Errorf("%s: %v hits, want %.1f±%.1f (arc %.4f)", n, got, exp, 5*sigma+1, arc[n])
		}
		rate := got / draws
		minRate = math.Min(minRate, rate)
		maxRate = math.Max(maxRate, rate)
		fmt.Fprintf(&b, "%s arc=%6.4f exp=%6.1f got=%4.0f %s\n",
			n, arc[n], exp, got, strings.Repeat("#", hits[n]/8))
	}
	t.Logf("virtual-node hit histogram (%d draws over %d members, V=%d):\n%s",
		draws, members, skewVirtualNodes, b.String())
	t.Logf("hit-rate spread: min %.4f, max %.4f (%.2fx skew)", minRate, maxRate, maxRate/minRate)

	// The flattening headline: uniform sampling puts every member near
	// 1/32 = 0.031, and V=128 virtual positions must hold the extremes
	// within 2x of each other — the single-position ring measured ~75x
	// here before virtual nodes landed.
	if maxRate/minRate > 2 {
		t.Errorf("hit-rate skew %.2fx; virtual nodes should flatten 32 members to within 2x", maxRate/minRate)
	}
}
