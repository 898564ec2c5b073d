package media

import (
	"bytes"
	"testing"
	"time"
)

func renditionFile() *File {
	return &File{Name: "ladder", Segments: 16, SegmentBytes: 4096, SegmentTime: time.Second}
}

func TestSizeAtHalvesPerClass(t *testing.T) {
	f := renditionFile()
	want := f.SegmentBytes
	for q := Quality(0); q <= MaxQuality; q++ {
		if got := f.SizeAt(q); got != want {
			t.Fatalf("SizeAt(%d) = %d, want %d", q, got, want)
		}
		want /= 2
	}
	tiny := &File{Name: "t", Segments: 1, SegmentBytes: 2, SegmentTime: time.Second}
	if got := tiny.SizeAt(MaxQuality); got != 1 {
		t.Fatalf("SizeAt on tiny segment = %d, want floor of 1", got)
	}
}

// TestSegmentContentAtDyadic pins the one rendition of every class, on
// segment sizes that do and do not divide by 2^q: SizeAt(q) bytes, tagged
// q, byte i being byte i·2^q of the full segment, the same on every call.
func TestSegmentContentAtDyadic(t *testing.T) {
	for _, bytesPer := range []int{1, 2, 15, 16, 17, 4096} {
		f := &File{Name: "dyadic", Segments: 9, SegmentBytes: bytesPer, SegmentTime: time.Second}
		for _, id := range []SegmentID{0, 3, 8} {
			full := SegmentContent(f, id).Data
			for q := Quality(0); q <= MaxQuality; q++ {
				seg := SegmentContentAt(f, id, q)
				if seg.ID != id || seg.Quality != q || len(seg.Data) != f.SizeAt(q) {
					t.Fatalf("%d-byte segment %d q%d: got id %d, q%d, %d bytes; want %d bytes",
						bytesPer, id, q, seg.ID, seg.Quality, len(seg.Data), f.SizeAt(q))
				}
				for i, b := range seg.Data {
					if b != full[i<<uint(q)] {
						t.Fatalf("%d-byte segment %d q%d: byte %d = %d, want full[%d] = %d",
							bytesPer, id, q, i, b, i<<uint(q), full[i<<uint(q)])
					}
				}
				if again := SegmentContentAt(f, id, q); !bytes.Equal(seg.Data, again.Data) {
					t.Fatalf("%d-byte segment %d q%d: two calls differ", bytesPer, id, q)
				}
			}
		}
	}
}

func TestStoreQualityTracking(t *testing.T) {
	f := renditionFile()
	s, err := NewStore(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SegmentContentAt(f, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SegmentContentAt(f, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if q := s.QualityOf(0); q != 0 {
		t.Fatalf("QualityOf(0) = %d, want 0", q)
	}
	if q := s.QualityOf(1); q != 2 {
		t.Fatalf("QualityOf(1) = %d, want 2", q)
	}
	if q := s.QualityOf(2); q != -1 {
		t.Fatalf("QualityOf(missing) = %d, want -1", q)
	}
	if got := s.Downgraded(); got != 1 {
		t.Fatalf("Downgraded = %d, want 1", got)
	}
	if seg, ok := s.Get(1); !ok || seg.Quality != 2 {
		t.Fatalf("Get(1) = %+v, %v; want quality 2", seg, ok)
	}

	// Every class demands its exact size: SegmentBytes at full quality,
	// SizeAt(q) for a downgraded rendition.
	if err := s.Put(Segment{ID: 3, Data: make([]byte, 10)}); err == nil {
		t.Fatal("undersized q0 segment accepted")
	}
	if err := s.Put(Segment{ID: 3, Quality: 1, Data: make([]byte, 100)}); err == nil {
		t.Fatalf("100-byte q1 segment accepted, want only %d bytes", f.SizeAt(1))
	}
	if err := s.Put(Segment{ID: 3, Quality: 1, Data: make([]byte, f.SizeAt(1))}); err != nil {
		t.Fatalf("SizeAt(1)-byte q1 segment rejected: %v", err)
	}
	if err := s.Put(Segment{ID: 4, Quality: MaxQuality + 1, Data: make([]byte, 8)}); err == nil {
		t.Fatal("off-ladder quality accepted")
	}
}

// TestStoreRefusesOffSizeRenditions checks that Slot, Commit and Put each
// refuse a downgraded payload of any length but SizeAt(q): one byte off
// either way, empty, or the full segment size.
func TestStoreRefusesOffSizeRenditions(t *testing.T) {
	f := renditionFile()
	s, err := NewStore(f)
	if err != nil {
		t.Fatal(err)
	}
	for q := Quality(1); q <= MaxQuality; q++ {
		size := f.SizeAt(q)
		for _, n := range []int{size - 1, size + 1, 0, f.SegmentBytes} {
			if _, err := s.Slot(0, q, n); err == nil {
				t.Errorf("Slot(0, q%d, %d bytes) accepted, want only %d", q, n, size)
			}
			if err := s.Commit(0, q, n); err == nil {
				t.Errorf("Commit(0, q%d, %d bytes) accepted, want only %d", q, n, size)
			}
			if err := s.Put(Segment{ID: 0, Quality: q, Data: make([]byte, n)}); err == nil {
				t.Errorf("Put(0, q%d, %d bytes) accepted, want only %d", q, n, size)
			}
		}
	}
	if s.Count() != 0 {
		t.Fatalf("store holds %d segments after only refused writes", s.Count())
	}
	for q := Quality(1); q <= MaxQuality; q++ {
		if err := s.Put(SegmentContentAt(f, SegmentID(q), q)); err != nil {
			t.Errorf("Put(SegmentContentAt(%d, q%d)) refused: %v", q, q, err)
		}
	}
}
