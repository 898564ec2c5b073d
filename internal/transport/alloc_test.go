//go:build !race

package transport

import (
	"bytes"
	"testing"
)

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

// TestReaderAllocs pins what reading a frame through a Reader costs: its
// buffer is the Reader's own, so a frame whose message keeps nothing costs
// nothing, a Probe costs the one copy its strings share, and a segment read
// into its slot costs nothing either.
func TestReaderAllocs(t *testing.T) {
	var src bytes.Reader
	rd := NewReader(&src)
	defer rd.Close()
	for _, tc := range []struct {
		kind Kind
		body any
		out  any
		want float64
	}{
		{KindProbeReply, ProbeReply{Decision: 1, Favors: true}, new(ProbeReply), 0},
		{KindAck, Ack{Seq: 3, Bytes: 16 << 10}, new(Ack), 0},
		{KindProbe, Probe{RequesterID: "r1", Class: 2, Object: "clip"}, new(Probe), 1},
	} {
		frame, err := Append(nil, tc.kind, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(1000, func() {
			src.Reset(frame)
			env, err := rd.Next()
			if err == nil {
				err = env.Decode(tc.out)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("reading and decoding a %s allocated %v times, want %v", tc.kind, got, tc.want)
		}
	}

	slot := make([]byte, 16<<10)
	frame, err := Append(nil, KindSegment, &Segment{ID: 5, Data: bytes.Repeat([]byte{7}, len(slot))})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(1000, func() {
		src.Reset(frame)
		_, seg, err := rd.NextSegment(func(id, quality, n int) ([]byte, error) { return slot[:n], nil })
		if err != nil || seg.ID != 5 || len(seg.Data) != len(slot) {
			t.Fatalf("read segment %d of %d bytes, err %v", seg.ID, len(seg.Data), err)
		}
	})
	if got != 0 {
		t.Errorf("reading a segment frame into its slot allocated %v times, want 0", got)
	}
}
