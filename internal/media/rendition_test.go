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

// TestStoreRenditionComposes: a store holding segment id at quality q_h
// renders it at every quality on the ladder from what it holds alone, on
// segment sizes that do and do not divide by 2^q. At q ≤ q_h it is the
// held view, labelled q_h; above q_h it is SegmentContentAt(q), because
// dyadic subsamples compose. A segment the store does not hold, or one
// past the file's end, has no rendition at any quality.
func TestStoreRenditionComposes(t *testing.T) {
	for _, bytesPer := range []int{1, 2, 15, 16, 17, 4096} {
		f := &File{Name: "compose", Segments: 9, SegmentBytes: bytesPer, SegmentTime: time.Second}
		for _, id := range []SegmentID{0, 3, 8} {
			for held := Quality(0); held <= MaxQuality; held++ {
				for q := Quality(0); q <= MaxQuality; q++ {
					checkRendition(t, f, id, held, q)
				}
			}
		}
		s, _ := NewStore(f)
		var buf []byte
		for q := Quality(0); q <= MaxQuality; q++ {
			for _, id := range []SegmentID{-1, 4, SegmentID(f.Segments)} {
				if seg, ok := s.Rendition(id, q, &buf); ok {
					t.Fatalf("%d-byte file: segment %d not held, but q%d renders %d bytes", bytesPer, id, q, len(seg.Data))
				}
			}
		}
	}
}

// FuzzRendition is TestStoreRenditionComposes's differential target over
// random segment sizes, IDs and held and asked-for qualities: the store's
// rendition against SegmentContentAt.
func FuzzRendition(f *testing.F) {
	f.Add(uint16(4095), uint16(3), uint8(0), uint8(2))
	f.Add(uint16(16), uint16(250), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, bytesPer, id uint16, held, q uint8) {
		file := &File{Name: "fuzz", Segments: int(id%512) + 1, SegmentBytes: int(bytesPer%8192) + 1, SegmentTime: time.Second}
		checkRendition(t, file, SegmentID(id%512), Quality(held)%(MaxQuality+1), Quality(q)%(MaxQuality+1))
	})
}

// checkRendition puts SegmentContentAt(f, id, held) in a store and checks
// its rendition at q: the held view when q ≤ held, otherwise
// SegmentContentAt(f, id, q), which a fresh store accepts.
func checkRendition(t *testing.T, f *File, id SegmentID, held, q Quality) {
	t.Helper()
	s, _ := NewStore(f)
	if err := s.Put(SegmentContentAt(f, id, held)); err != nil {
		t.Fatal(err)
	}
	view, _ := s.Get(id)
	var buf []byte
	got, ok := s.Rendition(id, q, &buf)
	if !ok {
		t.Fatalf("%d-byte segment %d held at q%d: no rendition at q%d", f.SegmentBytes, id, held, q)
	}
	if q <= held {
		if got.ID != id || got.Quality != held || len(got.Data) != len(view.Data) || &got.Data[0] != &view.Data[0] {
			t.Fatalf("%d-byte segment %d held at q%d: rendition at q%d is not the held view", f.SegmentBytes, id, held, q)
		}
		return
	}
	want := SegmentContentAt(f, id, q)
	if got.ID != id || got.Quality != q || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%d-byte segment %d held at q%d: rendition at q%d is %d bytes at q%d, want SegmentContentAt's %d",
			f.SegmentBytes, id, held, q, len(got.Data), got.Quality, len(want.Data))
	}
	fresh, _ := NewStore(f)
	if err := fresh.Put(got); err != nil {
		t.Fatalf("%d-byte segment %d held at q%d: a fresh store refuses its q%d rendition: %v", f.SegmentBytes, id, held, q, err)
	}
}

// TestIsSegmentContent: the in-place check accepts every rendition of
// every class and refuses one byte changed anywhere — in the formula's
// first period, where the period repeats, at the end — and any other
// length or label.
func TestIsSegmentContent(t *testing.T) {
	for _, bytesPer := range []int{1, 2, 250, 251, 252, 503, 4096} {
		f := &File{Name: "check", Segments: 9, SegmentBytes: bytesPer, SegmentTime: time.Second}
		for _, id := range []SegmentID{0, 5} {
			for q := Quality(0); q <= MaxQuality; q++ {
				seg := SegmentContentAt(f, id, q)
				if !IsSegmentContent(f, seg) {
					t.Fatalf("%d-byte segment %d q%d: own rendition refused", bytesPer, id, q)
				}
				n := len(seg.Data)
				for _, at := range []int{0, min(n, 251) - 1, min(n-1, 251), n / 2, n - 1} {
					seg.Data[at]++
					if IsSegmentContent(f, seg) {
						t.Fatalf("%d-byte segment %d q%d: byte %d changed, still accepted", bytesPer, id, q, at)
					}
					seg.Data[at]--
				}
				if n > 1 && IsSegmentContent(f, Segment{ID: id, Quality: q, Data: seg.Data[:n-1]}) {
					t.Fatalf("%d-byte segment %d q%d: a byte short, still accepted", bytesPer, id, q)
				}
				if IsSegmentContent(f, Segment{ID: id + 1, Quality: q, Data: seg.Data}) {
					t.Fatalf("%d-byte segment %d q%d: accepted as segment %d", bytesPer, id, q, id+1)
				}
			}
		}
	}
}
