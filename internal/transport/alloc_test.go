//go:build !race

package transport

import (
	"bytes"
	"context"
	"io"
	"net"
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
// into its slot costs nothing either; nor does an Exchange's reply.
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

	// An Exchange reads its reply through a Reader of its own, at what
	// reading it with ReadExpect cost: nothing.
	cli, srv := net.Pipe()
	defer cli.Close()
	reply, err := Append(nil, KindProbeReply, ProbeReply{Decision: 1, Favors: true})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer srv.Close()
		rd := NewReader(srv)
		defer rd.Close()
		for {
			if _, err := rd.Next(); err != nil {
				return
			}
			if _, err := srv.Write(reply); err != nil {
				return
			}
		}
	}()
	probe := &Probe{RequesterID: "r1", Class: 2, Object: "clip"}
	var out ProbeReply
	got = testing.AllocsPerRun(1000, func() {
		if err := Exchange(context.Background(), cli, KindProbe, probe, KindProbeReply, &out); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("a probe exchange over net.Pipe allocated %v times, want 0", got)
	}
}

// TestWriteAllocs pins every kind's by-value encode path at zero
// allocations: nothing on the way out keeps the body, so a message passed by
// value is boxed on its caller's stack. It covers Append into a buffer with
// room, Write to a writer that discards and Endpoint.Reply to a connection
// that does, each with the kind's zero message.
func TestWriteAllocs(t *testing.T) {
	ep := NewEndpoint("alloc-test", nil)
	var conn net.Conn = discardConn{}
	for k := Kind(1); k < kindEnd; k++ {
		check := byValue[k]
		if check == nil {
			t.Errorf("%s has no entry in byValue", k)
			continue
		}
		check(t, k, ep, conn)
	}
}

// byValue has, for every kind, writeAllocs of its message type.
var byValue = map[Kind]func(*testing.T, Kind, *Endpoint, net.Conn){
	KindRegister:           writeAllocs[Register],
	KindRegisterOK:         writeAllocs[struct{}],
	KindLookup:             writeAllocs[Lookup],
	KindCandidates:         writeAllocs[Candidates],
	KindProbe:              writeAllocs[Probe],
	KindProbeReply:         writeAllocs[ProbeReply],
	KindReminder:           writeAllocs[Reminder],
	KindReminderOK:         writeAllocs[ReminderReply],
	KindStart:              writeAllocs[Start],
	KindStartReply:         writeAllocs[StartReply],
	KindSegment:            writeAllocs[Segment],
	KindAck:                writeAllocs[Ack],
	KindSessionDone:        writeAllocs[SessionDone],
	KindError:              writeAllocs[Error],
	KindUnregister:         writeAllocs[Unregister],
	KindUnregisterOK:       writeAllocs[struct{}],
	KindRegisterBatch:      writeAllocs[RegisterBatch],
	KindRegisterBatchOK:    writeAllocs[struct{}],
	KindChordJoin:          writeAllocs[ChordJoin],
	KindChordJoinOK:        writeAllocs[ChordJoinReply],
	KindChordNotify:        writeAllocs[ChordNotify],
	KindChordNotifyOK:      writeAllocs[ChordNotifyReply],
	KindChordFingerQuery:   writeAllocs[ChordFingerQuery],
	KindChordFingerOK:      writeAllocs[ChordFingerReply],
	KindChordLookup:        writeAllocs[ChordLookup],
	KindChordLookupOK:      writeAllocs[ChordLookupReply],
	KindChordLeave:         writeAllocs[ChordLeave],
	KindChordLeaveOK:       writeAllocs[ChordLeaveReply],
	KindChordReplicate:     writeAllocs[ChordReplicate],
	KindChordReplicateOK:   writeAllocs[ChordReplicateReply],
	KindChordReplicaPull:   writeAllocs[ChordReplicaPull],
	KindChordReplicaPullOK: writeAllocs[ChordReplicaPullReply],
	KindDirEpochWatch:      writeAllocs[DirEpochWatch],
	KindDirEpoch:           writeAllocs[DirEpoch],
}

// writeAllocs checks that T is kind's message type and that sending its
// zero value by value allocates nothing. The conversion to any happens
// inside each measured call, where a boxed copy that escaped would count.
func writeAllocs[T any](t *testing.T, kind Kind, ep *Endpoint, conn net.Conn) {
	t.Helper()
	if _, ok := kinds[kind].body().(*T); !ok {
		t.Errorf("%s: byValue sends %T, the kind's message is %T", kind, *new(T), kinds[kind].body())
		return
	}
	var m T
	b := make([]byte, 0, 512)
	for _, path := range []struct {
		name string
		send func() error
	}{
		{"Append", func() (err error) { b, err = Append(b[:0], kind, m); return err }},
		{"Write", func() error { return Write(io.Discard, kind, m) }},
		{"Endpoint.Reply", func() error { return ep.Reply(conn, kind, m) }},
	} {
		if err := path.send(); err != nil {
			t.Fatalf("%s %s: %v", path.name, kind, err)
		}
		if got := testing.AllocsPerRun(100, func() { path.send() }); got != 0 {
			t.Errorf("%s of a %s by value allocated %v times, want 0", path.name, kind, got)
		}
	}
}

// discardConn is a net.Conn whose writes succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
