//go:build !race

package lookup

import (
	"math/rand"
	"testing"

	"p2pstream/internal/bandwidth"
)

// TestSampleIntoAllocs pins candidate sampling into a caller-kept buffer at
// zero allocations: no set of picked positions, no result slice. Not built
// under -race, which instruments allocation.
func TestSampleIntoAllocs(t *testing.T) {
	d := NewDirectory[int]()
	for i := 0; i < 50_000; i++ {
		if err := d.Register(Entry[int]{ID: i, Class: bandwidth.Class(1 + i%4)}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	buf := d.SampleInto(nil, 8, rng)
	if got := testing.AllocsPerRun(1000, func() { buf = d.SampleInto(buf, 8, rng) }); got != 0 {
		t.Errorf("%.0f allocs per SampleInto into a warm buffer, want 0", got)
	}
}
