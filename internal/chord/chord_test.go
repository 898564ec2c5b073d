package chord

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"p2pstream/internal/bandwidth"
)

func buildRing(t *testing.T, n int) *Ring {
	t.Helper()
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{Name: fmt.Sprintf("peer-%d", i), Class: bandwidth.Class(1 + i%4)}
	}
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestJoinValidation(t *testing.T) {
	r, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Join(Member{Name: "", Class: 1}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Join(Member{Name: "a", Class: 0}); err == nil {
		t.Error("invalid class should fail")
	}
	if err := r.Join(Member{Name: "a", Class: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(Member{Name: "a", Class: 2}); err == nil {
		t.Error("duplicate join should fail")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRingStructure(t *testing.T) {
	r := buildRing(t, 50)
	peers := r.Peers()
	for i, p := range peers {
		next := peers[(i+1)%len(peers)]
		prev := peers[(i-1+len(peers))%len(peers)]
		if p.Successor() != next {
			t.Fatalf("%s successor wrong", p.Name)
		}
		if p.Predecessor() != prev {
			t.Fatalf("%s predecessor wrong", p.Name)
		}
		if i > 0 && peers[i-1].ID >= p.ID {
			t.Fatal("peers not sorted by ID")
		}
	}
}

// TestOwnerMatchesBruteForce: the ring's owner function agrees with the
// definition (first peer clockwise from the key hash).
func TestOwnerMatchesBruteForce(t *testing.T) {
	r := buildRing(t, 64)
	peers := r.Peers()
	for trial := 0; trial < 500; trial++ {
		key := fmt.Sprintf("key-%d", trial)
		h := HashKey(key)
		var want *Peer
		for _, p := range peers {
			if p.ID >= h && (want == nil || p.ID < want.ID) {
				want = p
			}
		}
		if want == nil {
			want = peers[0] // wrap
		}
		got, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Owner(%s) = %s, want %s", key, got.Name, want.Name)
		}
	}
}

func TestOwnerEmptyRing(t *testing.T) {
	r, _ := New(nil)
	if _, err := r.Owner("k"); err == nil {
		t.Error("empty ring should fail")
	}
}

// TestLookupFromEveryPeer: routing from any start reaches the true owner.
func TestLookupFromEveryPeer(t *testing.T) {
	r := buildRing(t, 40)
	for trial := 0; trial < 100; trial++ {
		key := fmt.Sprintf("key-%d", trial)
		want, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		from := fmt.Sprintf("peer-%d", trial%40)
		got, hops, err := r.Lookup(from, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Lookup(%s from %s) = %s, want %s", key, from, got.Name, want.Name)
		}
		if hops < 0 || hops > 64 {
			t.Fatalf("hops = %d", hops)
		}
	}
	if _, _, err := r.Lookup("ghost", "k"); err == nil {
		t.Error("unknown start peer should fail")
	}
}

// TestLookupHopsLogarithmic: average hops stay near log2(n)/2 and well
// below linear scanning.
func TestLookupHopsLogarithmic(t *testing.T) {
	for _, n := range []int{16, 128, 1024} {
		r := buildRing(t, n)
		total := 0
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			from := fmt.Sprintf("peer-%d", trial%n)
			_, hops, err := r.Lookup(from, fmt.Sprintf("key-%d", trial))
			if err != nil {
				t.Fatal(err)
			}
			total += hops
		}
		avg := float64(total) / trials
		bound := 2 * math.Log2(float64(n))
		if avg > bound {
			t.Errorf("n=%d: avg hops %.1f > %.1f (2·log2 n)", n, avg, bound)
		}
	}
}

func TestSingletonRing(t *testing.T) {
	r := buildRing(t, 1)
	p := r.Peers()[0]
	if p.Successor() != p || p.Predecessor() != p {
		t.Error("singleton should point at itself")
	}
	got, hops, err := r.Lookup("peer-0", "anything")
	if err != nil {
		t.Fatal(err)
	}
	if got != p || hops != 0 {
		t.Errorf("lookup = %s hops %d", got.Name, hops)
	}
}

func TestJoinLeaveConsistency(t *testing.T) {
	r := buildRing(t, 30)
	// Remove a third of the peers, then re-verify ownership everywhere.
	for i := 0; i < 30; i += 3 {
		if !r.Leave(fmt.Sprintf("peer-%d", i)) {
			t.Fatal("leave failed")
		}
	}
	if r.Leave("peer-0") {
		t.Error("double leave should be false")
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d", r.Len())
	}
	for trial := 0; trial < 200; trial++ {
		key := fmt.Sprintf("key-%d", trial)
		want, _ := r.Owner(key)
		got, _, err := r.Lookup("peer-1", key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after churn: Lookup(%s) = %s, want %s", key, got.Name, want.Name)
		}
	}
	// Rejoin some peers.
	if err := r.Join(Member{Name: "peer-0", Class: 2}); err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Peer("peer-0"); !ok || p.Class != 2 {
		t.Error("rejoined peer wrong")
	}
}

func TestSampleCandidates(t *testing.T) {
	r := buildRing(t, 60)
	rng := rand.New(rand.NewSource(4))
	cands, hops, err := r.SampleCandidates("peer-0", 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 8 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if hops <= 0 {
		t.Error("expected routing hops > 0")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if c.Name == "peer-0" {
			t.Error("sample returned the requester")
		}
		if seen[c.Name] {
			t.Error("duplicate candidate")
		}
		seen[c.Name] = true
		if !c.Class.Valid(bandwidth.MaxClass) {
			t.Error("candidate missing class")
		}
	}
}

func TestSampleCandidatesEdges(t *testing.T) {
	r := buildRing(t, 3)
	rng := rand.New(rand.NewSource(1))
	cands, _, err := r.SampleCandidates("peer-0", 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Errorf("candidates = %d, want all other peers (2)", len(cands))
	}
	if got, _, _ := r.SampleCandidates("peer-0", 0, rng); got != nil {
		t.Error("m=0 should return nil")
	}
	if _, _, err := r.SampleCandidates("ghost", 1, rng); err == nil {
		t.Error("unknown requester should fail")
	}
}

func TestHashKeyStable(t *testing.T) {
	if HashKey("x") != HashKey("x") {
		t.Error("hash not deterministic")
	}
	if HashKey("x") == HashKey("y") {
		t.Error("suspicious collision")
	}
}

// TestIntervalHelpers nails the circular-interval arithmetic, including
// wraparound.
func TestIntervalHelpers(t *testing.T) {
	tests := []struct {
		x, lo, hi uint64
		halfOpen  bool
		open      bool
	}{
		{5, 1, 10, true, true},
		{10, 1, 10, true, false},
		{1, 1, 10, false, false},
		{0, 250, 10, true, true},   // wrapped
		{255, 250, 10, true, true}, // wrapped
		{100, 250, 10, false, false},
		{5, 7, 7, true, true}, // lo == hi: whole circle (exclusive of lo)
	}
	for _, tt := range tests {
		if got := InHalfOpen(tt.x, tt.lo, tt.hi); got != tt.halfOpen {
			t.Errorf("InHalfOpen(%d, %d, %d) = %v", tt.x, tt.lo, tt.hi, got)
		}
		if got := InOpen(tt.x, tt.lo, tt.hi); got != tt.open {
			t.Errorf("InOpen(%d, %d, %d) = %v", tt.x, tt.lo, tt.hi, got)
		}
	}
}

// TestVirtualPositionSpread checks the multi-position helper: index 0 is
// the peer's topological ring position, every (name, i) pair is
// deterministic, and a member's virtual positions scatter instead of
// clustering on one arc.
func TestVirtualPositionSpread(t *testing.T) {
	if VirtualPosition("peer-7", 0) != HashKey("peer-7") {
		t.Error("index 0 must equal the peer's ring position")
	}
	if VirtualPosition("peer-7", 3) != VirtualPosition("peer-7", 3) {
		t.Error("virtual positions must be deterministic")
	}
	// Distinctness across indices and across names for a realistic V.
	const v = 128
	seen := make(map[uint64]string, 2*v)
	for _, name := range []string{"m00", "m01"} {
		for i := 0; i < v; i++ {
			pos := VirtualPosition(name, i)
			if prev, dup := seen[pos]; dup {
				t.Fatalf("collision: %s/%d and %s", name, i, prev)
			}
			seen[pos] = fmt.Sprintf("%s/%d", name, i)
		}
	}
	// Scatter: the largest gap between one member's sorted positions
	// should be far below the whole circle (a tight cluster would leave
	// one gap of nearly 2^64). With 128 well-mixed positions the largest
	// gap is ~ (ln 128 + gamma)/128 of the circle; 1/8 is a loose bound.
	positions := make([]uint64, 0, v)
	for i := 0; i < v; i++ {
		positions = append(positions, VirtualPosition("m00", i))
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	var maxGap uint64
	for i := range positions {
		next := positions[(i+1)%len(positions)]
		gap := next - positions[i] // wraps mod 2^64 for the last pair
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap > 1<<61 { // 1/8 of the circle
		t.Errorf("virtual positions cluster: largest gap %d (%.2f of circle)",
			maxGap, float64(maxGap)/float64(1<<63)/2)
	}
}

// BenchmarkChordLookup measures decentralized candidate discovery on a
// 4,096-peer Chord ring.
func BenchmarkChordLookup(b *testing.B) {
	members := make([]Member, 4096)
	for i := range members {
		members[i] = Member{Name: fmt.Sprintf("peer-%d", i), Class: bandwidth.Class(1 + i%4)}
	}
	ring, err := New(members)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.SampleCandidates("peer-0", 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}
