package chord

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

func TestHashKeyStable(t *testing.T) {
	if HashKey("x") != HashKey("x") {
		t.Error("hash not deterministic")
	}
	if HashKey("x") == HashKey("y") {
		t.Error("suspicious collision")
	}
	// The hand-written FNV-1a agrees with hash/fnv's, under the finalizer.
	for _, key := range []string{"", "x", "p42", "sample-9223372036854775807"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := HashKey(key), avalanche(h.Sum64()); got != want {
			t.Errorf("HashKey(%q) = %#x, want %#x", key, got, want)
		}
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
