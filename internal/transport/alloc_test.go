//go:build !race

package transport

import "testing"

// TestAppendAllocs pins Append at zero allocations when the buffer has room
// for the frame and the body is passed by pointer: a supplier's session
// appends every segment to one pooled buffer. Not built under -race, which
// instruments allocation.
func TestAppendAllocs(t *testing.T) {
	seg := Segment{ID: 7, Data: make([]byte, 1024)}
	done := SessionDone{Sent: 8}
	b := make([]byte, 0, 4096)
	got := testing.AllocsPerRun(1000, func() {
		b, _ = Append(b[:0], KindSegment, &seg)
		b, _ = Append(b, KindSessionDone, &done)
	})
	if got != 0 {
		t.Errorf("Append allocated %v times per two frames, want 0", got)
	}
}
