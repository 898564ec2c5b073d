//go:build !race

package media

import (
	"runtime"
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

// sink keeps the renditions the allocation tests build alive.
var sink Segment

// TestSegmentContentAtAllocs pins a rendition at one allocation of its own
// SizeAt(q) bytes at every class: it is filled from the content formula,
// not subsampled from a full segment built first.
func TestSegmentContentAtAllocs(t *testing.T) {
	f := &File{Name: "bulk", Segments: 4, SegmentBytes: 16 << 10, SegmentTime: time.Millisecond}
	for q := Quality(0); q <= MaxQuality; q++ {
		if got := testing.AllocsPerRun(20, func() { sink = SegmentContentAt(f, 1, q) }); got != 1 {
			t.Errorf("SegmentContentAt q%d: %v allocations, want 1", q, got)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			sink = SegmentContentAt(f, 1, q)
		}
		runtime.ReadMemStats(&after)
		// A few bytes of slack for whatever else the runtime allocates
		// meanwhile; a full segment built first would be thousands over.
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > uint64(f.SizeAt(q))+64 {
			t.Errorf("SegmentContentAt q%d: %d bytes allocated, want SizeAt(q) = %d", q, got, f.SizeAt(q))
		}
	}
}

// TestRenditionAllocs pins the supplier's rendition step: once a session's
// buffer has grown to its first downgrade, a held segment and a subsampled
// one cost no allocation at any quality.
func TestRenditionAllocs(t *testing.T) {
	f := &File{Name: "bulk", Segments: 4, SegmentBytes: 16 << 10, SegmentTime: time.Millisecond}
	s, err := NewSeededStore(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	s.Rendition(0, 1, &buf) // the session's first downgrade grows its buffer
	for q := Quality(0); q <= MaxQuality; q++ {
		got := testing.AllocsPerRun(20, func() {
			if seg, ok := s.Rendition(1, q, &buf); !ok || seg.Quality != q {
				t.Fatalf("rendition of held segment 1 at q%d: %v, quality %d", q, ok, seg.Quality)
			}
		})
		if got != 0 {
			t.Errorf("Rendition q%d: %v allocations with the buffer grown, want 0", q, got)
		}
	}
}
