package media

import (
	"bytes"
	"testing"
	"time"
)

func testFile() *File {
	return &File{Name: "t", Segments: 8, SegmentBytes: 16, SegmentTime: time.Second}
}

func TestFileValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*File)
		wantErr bool
	}{
		{"valid", func(f *File) {}, false},
		{"no name", func(f *File) { f.Name = "" }, true},
		{"zero segments", func(f *File) { f.Segments = 0 }, true},
		{"negative segments", func(f *File) { f.Segments = -1 }, true},
		{"zero bytes", func(f *File) { f.SegmentBytes = 0 }, true},
		{"zero time", func(f *File) { f.SegmentTime = 0 }, true},
		{"negative time", func(f *File) { f.SegmentTime = -time.Second }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := testFile()
			tt.mutate(f)
			if err := f.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFileDerivedQuantities(t *testing.T) {
	f := testFile()
	if got := f.Duration(); got != 8*time.Second {
		t.Errorf("Duration = %v, want 8s", got)
	}
	if got := f.TotalBytes(); got != 128 {
		t.Errorf("TotalBytes = %d, want 128", got)
	}
	if got := f.PlaybackRateBps(); got != 16 {
		t.Errorf("PlaybackRateBps = %g, want 16", got)
	}
}

func TestStorePutGet(t *testing.T) {
	f := testFile()
	s, err := NewStore(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Complete() {
		t.Error("empty store reports Complete")
	}
	seg := SegmentContent(f, 3)
	if err := s.Put(seg); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(3)
	if !ok {
		t.Fatal("Get(3) missing after Put")
	}
	if !bytes.Equal(got.Data, seg.Data) {
		t.Error("Get(3) returned different data")
	}
	if !s.Has(3) || s.Has(2) {
		t.Error("Has() wrong")
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d, want 1", s.Count())
	}
}

func TestStorePutErrors(t *testing.T) {
	f := testFile()
	s, _ := NewStore(f)
	if err := s.Put(Segment{ID: -1, Data: make([]byte, 16)}); err == nil {
		t.Error("Put(-1) should fail")
	}
	if err := s.Put(Segment{ID: 8, Data: make([]byte, 16)}); err == nil {
		t.Error("Put(8) out of range should fail")
	}
	if err := s.Put(Segment{ID: 0, Data: make([]byte, 15)}); err == nil {
		t.Error("Put with wrong size should fail")
	}
	if err := s.Put(SegmentContent(f, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SegmentContent(f, 0)); err == nil {
		t.Error("double Put should fail")
	}
}

func TestStoreGetOutOfRange(t *testing.T) {
	s, _ := NewStore(testFile())
	if _, ok := s.Get(-1); ok {
		t.Error("Get(-1) should be missing")
	}
	if _, ok := s.Get(100); ok {
		t.Error("Get(100) should be missing")
	}
}

func TestNewStoreInvalidFile(t *testing.T) {
	if _, err := NewStore(&File{}); err == nil {
		t.Error("NewStore with invalid file should fail")
	}
	if _, err := NewSeededStore(&File{}); err == nil {
		t.Error("NewSeededStore with invalid file should fail")
	}
}

func TestSeededStoreComplete(t *testing.T) {
	f := testFile()
	s, err := NewSeededStore(f)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Error("seeded store not complete")
	}
	if s.Count() != f.Segments {
		t.Errorf("Count = %d, want %d", s.Count(), f.Segments)
	}
	// Content must be deterministic and distinct between segments.
	a, _ := s.Get(0)
	b, _ := s.Get(1)
	if bytes.Equal(a.Data, b.Data) {
		t.Error("segments 0 and 1 have identical content")
	}
	again := SegmentContent(f, 0)
	if !bytes.Equal(a.Data, again.Data) {
		t.Error("SegmentContent not deterministic")
	}
}

func TestVerifyPlaybackContinuous(t *testing.T) {
	f := testFile()
	// Segment s arrives at (s+1)·δt: continuous with delay 1·δt.
	arrivals := make([]time.Duration, f.Segments)
	for s := range arrivals {
		arrivals[s] = time.Duration(s+1) * f.SegmentTime
	}
	report, err := VerifyPlayback(f, arrivals, f.SegmentTime)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Continuous() {
		t.Errorf("expected continuous playback, got %d stalls (first %d)", report.Stalls, report.FirstStall)
	}
	// With zero delay, every segment arrives exactly δt late.
	report, err = VerifyPlayback(f, arrivals, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Stalls != f.Segments {
		t.Errorf("Stalls = %d, want %d", report.Stalls, f.Segments)
	}
	if report.FirstStall != 0 {
		t.Errorf("FirstStall = %d, want 0", report.FirstStall)
	}
}

func TestVerifyPlaybackErrors(t *testing.T) {
	f := testFile()
	if _, err := VerifyPlayback(f, make([]time.Duration, 3), 0); err == nil {
		t.Error("wrong arrival count should fail")
	}
	if _, err := VerifyPlayback(&File{}, nil, 0); err == nil {
		t.Error("invalid file should fail")
	}
}

func TestMinimalDelay(t *testing.T) {
	f := testFile()
	arrivals := make([]time.Duration, f.Segments)
	for s := range arrivals {
		arrivals[s] = time.Duration(s+1) * f.SegmentTime
	}
	// Worst slack is exactly 1·δt for every segment.
	got, err := MinimalDelay(f, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if got != f.SegmentTime {
		t.Errorf("MinimalDelay = %v, want %v", got, f.SegmentTime)
	}
	// The minimal delay must verify as continuous, and one nanosecond less
	// must stall.
	report, _ := VerifyPlayback(f, arrivals, got)
	if !report.Continuous() {
		t.Error("minimal delay is not continuous")
	}
	report, _ = VerifyPlayback(f, arrivals, got-time.Nanosecond)
	if report.Continuous() {
		t.Error("delay below minimal should stall")
	}
}

func TestMinimalDelayAllEarly(t *testing.T) {
	f := testFile()
	arrivals := make([]time.Duration, f.Segments)
	got, err := MinimalDelay(f, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("MinimalDelay with instant arrivals = %v, want 0", got)
	}
	if _, err := MinimalDelay(f, nil); err == nil {
		t.Error("nil arrivals should fail")
	}
	if _, err := MinimalDelay(&File{}, nil); err == nil {
		t.Error("invalid file should fail")
	}
}

// TestCanonicalFill: the period-doubling fill is byte for byte the formula
// the canonical content is defined by, at every stride on the ladder.
func TestCanonicalFill(t *testing.T) {
	for _, n := range []int{1, 250, 251, 252, 502, 4096, 16384, 16385} {
		for _, id := range []SegmentID{0, 1, 250, 1023} {
			for q := Quality(0); q <= MaxQuality; q++ {
				got := make([]byte, n)
				fillCanonical(got, id, q)
				for j, b := range got {
					if want := byte((int(id)*131 + j<<uint(q)*31) % 251); b != want {
						t.Fatalf("segment %d q%d, %d bytes: byte %d is %d, want %d", id, q, n, j, b, want)
					}
				}
			}
		}
	}
}

// TestStoreSlots: a store spread over several chunks, the last one short,
// and one whose segments are each larger than a chunk, keep every segment
// in a slot of its own; Slot refuses what Put refuses before anything is
// written, and Put copies, so the caller's buffer is never the store's.
func TestStoreSlots(t *testing.T) {
	for _, f := range []*File{
		{Name: "chunked", Segments: 5, SegmentBytes: chunkBytes/2 - 3, SegmentTime: time.Second},
		{Name: "large", Segments: 3, SegmentBytes: chunkBytes + 5, SegmentTime: time.Second},
	} {
		seeded, err := NewSeededStore(f)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := NewStore(f)
		for id := SegmentID(0); id < SegmentID(f.Segments); id++ {
			want := SegmentContent(f, id).Data
			if got, _ := seeded.Get(id); !bytes.Equal(got.Data, want) {
				t.Fatalf("%s: seeded segment %d differs from SegmentContent", f.Name, id)
			}
			if id == 1 {
				// Downgraded, through Slot and Commit: a q2 slot takes
				// SizeAt(2) bytes and no other length.
				down := SegmentContentAt(f, id, 2).Data
				if _, err := s.Slot(id, 2, len(down)-1); err == nil {
					t.Fatalf("%s: Slot took %d q2 bytes, want only %d", f.Name, len(down)-1, len(down))
				}
				dst, err := s.Slot(id, 2, len(down))
				if err != nil {
					t.Fatal(err)
				}
				copy(dst, down)
				if err := s.Commit(id, 2, len(down)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			buf := append([]byte(nil), want...)
			if err := s.Put(Segment{ID: id, Data: buf}); err != nil {
				t.Fatal(err)
			}
			buf[0]++
		}
		for id := SegmentID(0); id < SegmentID(f.Segments); id++ {
			got, _ := s.Get(id)
			want := SegmentContent(f, id).Data
			if id == 1 {
				want = SegmentContentAt(f, id, 2).Data
			}
			if !bytes.Equal(got.Data, want) || cap(got.Data) != len(want) {
				t.Fatalf("%s: segment %d holds %d bytes (cap %d) that differ from what was put", f.Name, id, len(got.Data), cap(got.Data))
			}
		}
		if s.QualityOf(1) != 2 || s.Downgraded() != 1 || !s.Complete() {
			t.Fatalf("%s: quality %d, %d downgraded, complete %v", f.Name, s.QualityOf(1), s.Downgraded(), s.Complete())
		}
		for _, bad := range []struct {
			id SegmentID
			q  Quality
			n  int
		}{{-1, 0, f.SegmentBytes}, {SegmentID(f.Segments), 0, f.SegmentBytes}, {0, 0, f.SegmentBytes}, {0, 1, f.SegmentBytes + 1}, {0, MaxQuality + 1, 1}} {
			if _, err := s.Slot(bad.id, bad.q, bad.n); err == nil {
				t.Errorf("%s: Slot(%d, q%d, %d bytes) accepted", f.Name, bad.id, bad.q, bad.n)
			}
			if err := s.Commit(bad.id, bad.q, bad.n); err == nil {
				t.Errorf("%s: Commit(%d, q%d, %d bytes) accepted", f.Name, bad.id, bad.q, bad.n)
			}
		}
	}
}
