//go:build !race

package media

import (
	"testing"
	"time"
)

// TestSeededStoreAllocs pins seeding a store at one allocation per chunk
// plus the store's own three: the bulk benchmark file's 1024 × 16 KiB
// segments are 64 chunks, not 1024 segment buffers. Not built under -race,
// which instruments allocation.
func TestSeededStoreAllocs(t *testing.T) {
	f := &File{Name: "bulk", Segments: 1024, SegmentBytes: 16 << 10, SegmentTime: time.Millisecond}
	chunks := (f.Segments*f.SegmentBytes + chunkBytes - 1) / chunkBytes
	got := testing.AllocsPerRun(5, func() {
		if _, err := NewSeededStore(f); err != nil {
			t.Fatal(err)
		}
	})
	if got > float64(chunks+3) {
		t.Errorf("NewSeededStore allocated %v times, want at most %d", got, chunks+3)
	}
}
