package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"p2pstream/internal/dac"
)

func TestWriteReadRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		kind Kind
		body any
	}{
		{KindRegister, Register{ID: "n1", Addr: "127.0.0.1:9", Class: 2}},
		{KindLookup, Lookup{M: 8, Exclude: "n1"}},
		{KindCandidates, Candidates{Peers: []Candidate{{ID: "a", Addr: "x", Class: 1}}}},
		{KindProbe, Probe{RequesterID: "r", Class: 3}},
		{KindProbeReply, ProbeReply{Decision: dac.DeniedBusy, Favors: true}},
		{KindReminder, Reminder{RequesterID: "r", Class: 2}},
		{KindStart, Start{RequesterID: "r", FileName: "f", Segments: []int{0, 1, 3, 7}}},
		{KindSegment, Segment{ID: 5, Data: []byte{1, 2, 3}}},
		{KindSessionDone, SessionDone{Sent: 4}},
		{KindError, Error{Message: "boom"}},
	}
	for _, m := range msgs {
		if err := Write(&buf, m.kind, m.body); err != nil {
			t.Fatalf("Write(%s): %v", m.kind, err)
		}
	}
	for _, m := range msgs {
		env, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%s): %v", m.kind, err)
		}
		if env.Kind != m.kind {
			t.Fatalf("kind = %s, want %s", env.Kind, m.kind)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("Read on empty = %v, want EOF", err)
	}
}

func TestRoundtripPreservesFields(t *testing.T) {
	var buf bytes.Buffer
	in := Start{RequesterID: "req", FileName: "video", Segments: []int{2, 6, 10}}
	if err := Write(&buf, KindStart, in); err != nil {
		t.Fatal(err)
	}
	var out Start
	if err := ReadExpect(&buf, KindStart, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequesterID != in.RequesterID || out.FileName != in.FileName || len(out.Segments) != 3 {
		t.Errorf("roundtrip = %+v", out)
	}
	for i := range in.Segments {
		if out.Segments[i] != in.Segments[i] {
			t.Errorf("segments = %v", out.Segments)
		}
	}
}

func TestReadExpectWrongKind(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindProbe, Probe{})
	err := ReadExpect(&buf, KindProbeReply, &ProbeReply{})
	if err == nil || !strings.Contains(err.Error(), "want probe-reply") {
		t.Errorf("err = %v", err)
	}
}

func TestReadExpectErrorPassthrough(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindError, Error{Message: "busy"})
	err := ReadExpect(&buf, KindProbeReply, &ProbeReply{})
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Errorf("err = %v", err)
	}
}

func TestReadExpectNilOut(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindRegisterOK, struct{}{})
	if err := ReadExpect(&buf, KindRegisterOK, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxMessageSize+1)
	buf.Write(lenBuf[:])
	if _, err := Read(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReadRejectsZeroFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := Read(&buf); !errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMalformedFrame", err)
	}
}

func TestReadGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 4, wireVersion, 0xee, 0xff, 0xff})
	if _, err := Read(&buf); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("unknown kind: err = %v, want ErrMalformedFrame", err)
	}
}

func TestReadTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10})
	buf.WriteString("abc")
	if _, err := Read(&buf); !errors.Is(err, ErrMalformedFrame) || errors.Is(err, io.EOF) {
		t.Errorf("truncated body: err = %v, want ErrMalformedFrame and not a clean EOF", err)
	}
}

// TestReadRejectsJSONEraFrame: a peer of the JSON wire format is refused on
// its first frame, by Read and ReadExpect alike, with an error that names
// the byte found where the version belongs.
func TestReadRejectsJSONEraFrame(t *testing.T) {
	old := `{"kind":"probe","body":{"requester_id":"r","class":1}}`
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(old)))
	frame = append(frame, old...)
	_, err := Read(bytes.NewReader(frame))
	if !errors.Is(err, ErrWireVersion) || !strings.Contains(err.Error(), "0x7b") {
		t.Errorf("Read = %v, want ErrWireVersion naming 0x7b", err)
	}
	if err := ReadExpect(bytes.NewReader(frame), KindProbe, &Probe{}); !errors.Is(err, ErrWireVersion) {
		t.Errorf("ReadExpect = %v, want ErrWireVersion", err)
	}
}

func TestWriteRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := Segment{ID: 0, Data: make([]byte, MaxMessageSize)}
	if err := Write(&buf, KindSegment, big); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

// TestNotAMessage: only the message structs of this package cross the
// wire — anything else is an error on either side, and decoding needs a
// pointer.
func TestNotAMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, KindError, make(chan int)); err == nil || buf.Len() != 0 {
		t.Errorf("Write of a channel: err = %v, %d bytes written", err, buf.Len())
	}
	Write(&buf, KindSegment, Segment{ID: 1})
	env, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wrong []int
	if err := env.Decode(&wrong); err == nil {
		t.Error("decoding into a slice should fail")
	}
	if err := env.Decode(Segment{}); err == nil {
		t.Error("decoding into a message passed by value should fail")
	}
}

// TestReadBodyOutlivesPooledBuffer: what Read and ReadExpect hand out must
// stay intact while later frames churn through the buffer pool — the
// envelope body and the Segment.Data aliasing it, and the strings and
// bytes ReadExpect decoded out of a pooled buffer.
func TestReadBodyOutlivesPooledBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5, 0x5a}, 300)
	frame := func(kind Kind, body any) *bytes.Reader {
		var w bytes.Buffer
		if err := Write(&w, kind, body); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(w.Bytes())
	}
	env, err := Read(frame(KindSegment, Segment{ID: 3, Data: payload}))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := string(env.Body)
	var viaRead, viaExpect Segment
	if err := env.Decode(&viaRead); err != nil {
		t.Fatal(err)
	}
	if len(viaRead.Data) == 0 || &viaRead.Data[0] != &env.Body[len(env.Body)-len(payload)] {
		t.Error("Decode copied Segment.Data instead of aliasing the envelope body")
	}
	if err := ReadExpect(frame(KindSegment, Segment{ID: 3, Data: payload}), KindSegment, &viaExpect); err != nil {
		t.Fatal(err)
	}
	var reg Register
	if err := ReadExpect(frame(KindRegister, Register{ID: "supplier-1", Addr: "10.0.0.1:7000", Object: "clip"}), KindRegister, &reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := Read(frame(KindError, Error{Message: strings.Repeat("x", 100+i)})); err != nil {
			t.Fatal(err)
		}
		var churn Segment
		if err := ReadExpect(frame(KindSegment, Segment{Data: bytes.Repeat([]byte{byte(i)}, 700)}), KindSegment, &churn); err != nil {
			t.Fatal(err)
		}
	}
	if string(env.Body) != snapshot {
		t.Error("envelope body mutated after buffer reuse")
	}
	if !bytes.Equal(viaRead.Data, payload) || !bytes.Equal(viaExpect.Data, payload) {
		t.Error("Segment.Data mutated after buffer reuse")
	}
	if want := (Register{ID: "supplier-1", Addr: "10.0.0.1:7000", Object: "clip"}); reg != want {
		t.Errorf("strings decoded by ReadExpect mutated after buffer reuse: %+v", reg)
	}
}

// TestAppendBackToBack: frames Append puts one after another in a single
// buffer are the bytes Write sends for each, and read back one by one and in
// order through Read and ReadExpect alike.
func TestAppendBackToBack(t *testing.T) {
	msgs := []struct {
		kind Kind
		body any
	}{
		{KindStartReply, StartReply{OK: true}},
		{KindSegment, &Segment{ID: 0, Data: []byte("zero")}},
		{KindSegment, Segment{ID: 1, Quality: 2, Data: []byte("one")}},
		{KindSessionDone, SessionDone{Sent: 2}},
	}
	var b []byte
	var each bytes.Buffer
	for _, m := range msgs {
		var err error
		if b, err = Append(b, m.kind, m.body); err != nil {
			t.Fatalf("Append(%s): %v", m.kind, err)
		}
		if err := Write(&each, m.kind, m.body); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(b, each.Bytes()) {
		t.Fatalf("batch %x, frames written one by one %x", b, each.Bytes())
	}
	r := bytes.NewReader(b)
	for i, m := range msgs {
		if i%2 == 0 {
			env, err := Read(r)
			if err != nil || env.Kind != m.kind {
				t.Fatalf("frame %d: Read = %v, %v; want %s", i, env, err, m.kind)
			}
			continue
		}
		out := kinds[m.kind].body()
		if err := ReadExpect(r, m.kind, out); err != nil {
			t.Fatalf("frame %d: ReadExpect(%s) = %v", i, m.kind, err)
		}
		got, _ := Append(nil, m.kind, out)
		if want, _ := Append(nil, m.kind, m.body); !bytes.Equal(got, want) {
			t.Errorf("frame %d decoded as %+v", i, out)
		}
	}
	if _, err := Read(r); !errors.Is(err, io.EOF) {
		t.Errorf("after the batch: %v, want EOF", err)
	}
}

// TestAppendFailureKeepsEarlierFrames: an Append that fails — a body that is
// no message, a frame past MaxMessageSize — returns the frames already in
// the buffer exactly as they were, and the next Append goes on from them.
func TestAppendFailureKeepsEarlierFrames(t *testing.T) {
	b, err := Append(nil, KindStartReply, StartReply{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(b)
	if b, err = Append(b, KindSegment, make(chan int)); err == nil || !bytes.Equal(b, before) {
		t.Errorf("not a message: err = %v, buffer %x, want %x", err, b, before)
	}
	if b, err = Append(b, KindSegment, &Segment{Data: make([]byte, MaxMessageSize)}); !errors.Is(err, ErrMessageTooLarge) || !bytes.Equal(b, before) {
		t.Errorf("oversized: err = %v, buffer of %d bytes, want ErrMessageTooLarge and %x", err, len(b), before)
	}
	if b, err = Append(b, KindSessionDone, SessionDone{}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b)
	for _, want := range []Kind{KindStartReply, KindSessionDone} {
		if env, err := Read(r); err != nil || env.Kind != want {
			t.Fatalf("Read = %v, %v; want %s", env, err, want)
		}
	}
}

// countingReader counts the Read calls made of it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderReadsAhead: a supplier's burst — its StartReply, four bulk
// segments and the SessionDone, Appended into one write — comes out of a
// Reader's NextSegment in at most three Reads: one fill of the buffer the
// Reader drew, then two of the buffer grown to readAhead. That holds for
// the pool's starting buffer and for one a large Write grew past a
// segment's size alike. A reader that never read past a frame took two or
// three Reads per frame.
func TestReaderReadsAhead(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3c}, 16<<10)
	burst, err := Append(nil, KindStartReply, StartReply{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := range 4 {
		if burst, err = Append(burst, KindSegment, &Segment{ID: id, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if burst, err = Append(burst, KindSessionDone, SessionDone{Sent: 4}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		buf  int
	}{
		{"fresh buffer", pooledFrame},
		{"buffer grown by a write", 20 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &countingReader{r: bytes.NewReader(burst)}
			buf := make([]byte, 0, tc.buf)
			rd := Reader{r: src, bp: &buf}
			slots := make([][]byte, 4)
			var got []Kind
			for {
				env, seg, err := rd.NextSegment(func(id, quality, n int) ([]byte, error) {
					slots[id] = make([]byte, n)
					return slots[id], nil
				})
				if err != nil {
					t.Fatalf("after %v: %v", got, err)
				}
				got = append(got, env.Kind)
				if env.Kind == KindSegment && !bytes.Equal(seg.Data, payload) {
					t.Fatalf("segment %d arrived as %d other bytes", seg.ID, len(seg.Data))
				}
				if env.Kind == KindSessionDone {
					break
				}
			}
			if want := []Kind{KindStartReply, KindSegment, KindSegment, KindSegment, KindSegment, KindSessionDone}; !slices.Equal(got, want) {
				t.Fatalf("read %v, want %v", got, want)
			}
			if src.reads > 3 {
				t.Errorf("a burst of %d bytes in %d frames took %d Reads, want at most 3", len(burst), len(got), src.reads)
			}
		})
	}
}

// TestReaderSmallSegments: a stream of control-plane-sized segments — 256
// and 64 bytes, as the admission and crowd workloads send — never grows the
// pool's starting buffer to readAhead.
func TestReaderSmallSegments(t *testing.T) {
	for _, size := range []int{256, 64} {
		var stream []byte
		var err error
		for id := range 16 {
			if stream, err = Append(stream, KindSegment, &Segment{ID: id, Data: make([]byte, size)}); err != nil {
				t.Fatal(err)
			}
		}
		rd := freshReader(bytes.NewReader(stream))
		slot := make([]byte, size)
		for range 16 {
			if _, _, err := rd.NextSegment(func(id, quality, n int) ([]byte, error) { return slot[:n], nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := cap(*rd.bp); got != pooledFrame {
			t.Errorf("%d-byte segments grew the Reader's buffer to %d bytes", size, got)
		}
	}
}

// TestReaderLargePayload: a payload at least as large as a Reader's grown
// buffer is read straight into its slot, over a stream that gives it whole,
// a byte or half a request per Read, and the frame after it reads on; cut
// off inside, it is a malformed frame.
func TestReaderLargePayload(t *testing.T) {
	payload := make([]byte, 2*readAhead)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	stream, err := Append(nil, KindSegment, &Segment{ID: 3, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(stream) - 10
	if stream, err = Append(stream, KindSessionDone, SessionDone{Sent: 1}); err != nil {
		t.Fatal(err)
	}
	slot := make([]byte, len(payload))
	into := func(id, quality, n int) ([]byte, error) { return slot[:n], nil }
	for _, way := range readWays {
		rd := freshReader(way.wrap(bytes.NewReader(stream)))
		clear(slot)
		if _, seg, err := rd.NextSegment(into); err != nil || seg.ID != 3 || !bytes.Equal(seg.Data, payload) {
			t.Fatalf("%s: read segment %d of %d bytes, err %v", way.name, seg.ID, len(seg.Data), err)
		}
		if env, err := rd.Next(); err != nil || env.Kind != KindSessionDone {
			t.Errorf("%s: after the segment read %s, %v; want session-done", way.name, env.Kind, err)
		}
		rd = freshReader(way.wrap(bytes.NewReader(stream[:cut])))
		if _, _, err := rd.NextSegment(into); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: a payload cut off read as %v, want ErrMalformedFrame", way.name, err)
		}
	}
}
