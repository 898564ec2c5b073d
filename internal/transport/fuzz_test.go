package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// frameOf assembles the frame Write would for already-encoded fields.
func frameOf(kind Kind, fields []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(2+len(fields)))
	return append(append(frame, wireVersion, byte(kind)), fields...)
}

// FuzzDecodeAnyKind decodes arbitrary bytes as the fields of any kind in
// the table. Decoding must never panic and never allocate out of
// proportion to its input — the densest field, a list of empty strings,
// costs 16 bytes in memory per byte on the wire, which the allocator's
// size classes round up to at most 20; and because a message
// has exactly one encoding, whatever decodes must encode back to the very
// bytes it came from. The committed corpus under testdata holds a fully
// populated body of every kind and one frame per way of being malformed.
func FuzzDecodeAnyKind(f *testing.F) {
	f.Add(byte(KindProbe), []byte{2, 'r', '1', 2, 0})
	f.Add(byte(KindChordJoinOK), []byte{0, 0})
	f.Add(byte(KindRegisterOK), []byte{})
	f.Add(byte(kindEnd), []byte{0})
	f.Fuzz(func(t *testing.T, kind byte, fields []byte) {
		k := Kind(kind)
		if len(fields) > MaxMessageSize-2 {
			return // not a frame at all
		}
		if !k.known() {
			if _, err := Read(bytes.NewReader(frameOf(k, fields))); err == nil {
				t.Fatalf("Read accepted unknown kind %d", kind)
			}
			return
		}
		env := Envelope{Kind: k, Body: fields}
		limit := uint64(20*len(fields) + 4096)
		var out any
		var err error
		// TotalAlloc counts the whole process: a fuzz worker's own goroutines
		// can land in one measurement, hardly in three.
		for try := 1; ; try++ {
			out = kinds[k].body()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = env.Decode(out)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes of %s allocated %d bytes (limit %d)", len(fields), k, grew, limit)
			}
		}
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := Write(&wire, k, out); err != nil {
			t.Fatalf("%s decoded but does not re-encode: %v", k, err)
		}
		if want := frameOf(k, fields); !bytes.Equal(wire.Bytes(), want) {
			t.Fatalf("%s is not canonical:\n decoded %x\nre-encoded %x", k, want, wire.Bytes())
		}
	})
}

// FuzzReadCorruptFrame feeds arbitrary bytes to the frame reader: Read and
// ReadExpect must never panic, Read must accept only frames within
// MaxMessageSize of a known kind, and both read paths must agree on
// whether the frame decodes. The seed corpus covers truncated frames,
// oversized and undersized length prefixes, a JSON-era frame, and valid
// headers over garbage fields.
func FuzzReadCorruptFrame(f *testing.F) {
	frame := func(kind Kind, body any) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, kind, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add(frame(KindChordLookup, ChordLookup{Key: 42}))
	f.Add(frame(KindChordLeave, ChordLeave{Peer: ChordContact{Name: "p"}}))
	corrupt := frame(KindChordFingerOK, ChordFingerReply{Done: true})
	f.Add(corrupt[:len(corrupt)-3])
	f.Add(frameOf(KindCandidates, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := binary.BigEndian.Uint32(data[:4]); n > MaxMessageSize || int(n) != 2+len(env.Body) {
			t.Fatalf("Read returned %d bytes of fields for a frame of length %d", len(env.Body), n)
		}
		if !env.Kind.known() {
			t.Fatalf("Read accepted unknown kind %d", env.Kind)
		}
		derr := env.Decode(kinds[env.Kind].body())
		rerr := ReadExpect(bytes.NewReader(data), env.Kind, kinds[env.Kind].body())
		if env.Kind != KindError && (derr == nil) != (rerr == nil) {
			t.Fatalf("%s: Decode = %v but ReadExpect = %v", env.Kind, derr, rerr)
		}
	})
}

// FuzzReadFrameStream reads arbitrary bytes as a stream of frames, the way a
// requester reads a supplier's session when several of its frames left in
// one write: Read, ReadExpect and a Reader's Next step through the stream
// side by side. Read and ReadExpect agree frame by frame on whether each
// decodes; Next returns the very frame Read does and stops where and as Read
// does; the bytes each has consumed — for the Reader, those taken from the
// stream less those it still buffers — are the same after every frame. Read
// stops at the first frame that is cut off or malformed with one of the frame
// errors, never a panic. The seeds are batches Append built, whole and with
// one frame inside them corrupted.
func FuzzReadFrameStream(f *testing.F) {
	for _, seed := range frameStreamSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		byRead, byExpect, byNext := bytes.NewReader(data), bytes.NewReader(data), bytes.NewReader(data)
		rd := freshReader(byNext)
		for {
			env, err := Read(byRead)
			next, nerr := rd.Next()
			if got, want := streamEnd(nerr), streamEnd(err); got != want {
				t.Fatalf("Next stopped with %v, Read with %v", nerr, err)
			}
			if err != nil {
				for _, clean := range []error{io.EOF, io.ErrUnexpectedEOF, ErrMalformedFrame, ErrMessageTooLarge, ErrWireVersion} {
					if errors.Is(err, clean) {
						return
					}
				}
				t.Fatalf("Read failed with %v, not a frame error", err)
			}
			if next.Kind != env.Kind || !bytes.Equal(next.Body, env.Body) {
				t.Fatalf("Next read a %s %x, Read a %s %x", next.Kind, next.Body, env.Kind, env.Body)
			}
			derr := env.Decode(kinds[env.Kind].body())
			rerr := ReadExpect(byExpect, env.Kind, kinds[env.Kind].body())
			if env.Kind != KindError && (derr == nil) != (rerr == nil) {
				t.Fatalf("%s: Decode = %v but ReadExpect = %v", env.Kind, derr, rerr)
			}
			if byRead.Len() != byExpect.Len() {
				t.Fatalf("after a %s frame Read left %d bytes and ReadExpect %d", env.Kind, byRead.Len(), byExpect.Len())
			}
			if left := byNext.Len() + rd.buffered(); left != byRead.Len() {
				t.Fatalf("after a %s frame Next left %d bytes unconsumed and Read %d", env.Kind, left, byRead.Len())
			}
		}
	})
}

// freshReader is a Reader of r on a buffer of the pool's starting size, not
// one from the pool, which may have grown: every growth of it happens in
// the stream under test.
func freshReader(r io.Reader) Reader {
	buf := make([]byte, 0, 512)
	return Reader{r: r, bp: &buf}
}

// frameStreamSeeds are the seeds of the stream fuzzers: batches Append
// built, whole, cut off, and with one frame inside them corrupted.
func frameStreamSeeds(f *testing.F) [][]byte {
	batch := func() []byte {
		var b []byte
		for _, m := range []struct {
			kind Kind
			body any
		}{
			{KindStartReply, StartReply{OK: true}},
			{KindSegment, Segment{ID: 0, Data: []byte("segment zero")}},
			{KindSegment, Segment{ID: 1, Quality: 1, Data: []byte("one")}},
			{KindSessionDone, SessionDone{Sent: 2}},
		} {
			var err error
			if b, err = Append(b, m.kind, m.body); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	second := 4 + int(binary.BigEndian.Uint32(batch()))                      // where the first segment's frame starts
	seeds := [][]byte{batch(), batch()[:len(batch())-3], batch()[:second+1]} // the last cut one byte into a length
	for _, corrupt := range []func(b []byte){
		func(b []byte) { b[second+3]++ },                 // a length one past the frame
		func(b []byte) { b[second+3]-- },                 // a length one short of it
		func(b []byte) { b[second] = 0xff },              // a length past MaxMessageSize
		func(b []byte) { b[second+4] = wireVersion + 1 }, // another wire version
		func(b []byte) { b[second+5] = byte(kindEnd) },   // an unknown kind
		func(b []byte) { b[second+8] = 0x7f },            // a payload count past the frame
	} {
		b := batch()
		corrupt(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// The model store of FuzzSegmentStream: slotSegs segments of at most
// slotBytes each — room for a payload larger than the pool's 512-byte
// buffer — refusing a segment out of range, longer than a slot or already
// held, as media.Store does.
const (
	slotSegs  = 4
	slotBytes = 1 << 10
)

var errRefused = errors.New("slot refused")

func refuseSlot(held map[int]bool, id, n int) error {
	if id < 0 || id >= slotSegs || n > slotBytes || held[id] {
		return errRefused
	}
	held[id] = true
	return nil
}

// streamEnd classifies how a read of a stream stopped: "" while it has not.
func streamEnd(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errRefused):
		return "refused"
	case errors.Is(err, ErrMalformedFrame), errors.Is(err, ErrMessageTooLarge), errors.Is(err, ErrWireVersion):
		return "frame error"
	case err == io.EOF:
		return "end"
	}
	return err.Error()
}

// FuzzSegmentStream reads arbitrary bytes as a session stream twice: with
// a Reader whose NextSegment puts each payload into a slot of a model store,
// and with Read and Decode, putting each decoded segment into a second model
// store. Frame by frame the two must agree on the kind, a segment's ID,
// quality and payload bytes, or any other frame's fields; the bytes the
// Reader has consumed — taken from the stream less those it still buffers —
// must be those Read has; and they must stop at the same frame for the same
// reason. The one difference allowed is the order of two checks:
// NextSegment asks for the slot before it consumes the payload, so a frame
// whose slot is refused and whose payload is cut off reads as a refusal
// there and as a frame error through Read. The Reader reads each input
// three ways — the whole stream per Read, one byte per Read and half of what
// it asks for per Read — which reach every fill, compaction and growth of
// its buffer.
func FuzzSegmentStream(f *testing.F) {
	for _, seed := range frameStreamSeeds(f) {
		f.Add(seed)
	}
	frames := func(segs ...Segment) []byte {
		var b []byte
		for _, seg := range segs {
			var err error
			if b, err = Append(b, KindSegment, &seg); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	payload := bytes.Repeat([]byte{0xa5}, slotBytes+1)
	f.Add(frames(Segment{ID: 2, Data: payload[:4]}, Segment{ID: 2, Data: payload[:4]}))        // a duplicate
	f.Add(frames(Segment{ID: 0, Data: payload[:1]}, Segment{ID: slotSegs, Data: payload[:5]})) // out of range
	f.Add(frames(Segment{ID: -1, Quality: 3, Data: payload[:2]}))                              // out of range, below
	f.Add(frames(Segment{ID: 1, Data: payload}))                                               // longer than a slot
	f.Add(frames(Segment{ID: 3, Data: payload})[:12])                                          // refused, and cut off
	f.Add(frameOf(KindSegment, []byte{0x80, 0x00, 0, 1, 0xa5}))                                // a non-minimal ID
	// Past the pool's 512-byte buffer: a burst of frames longer than it, a
	// frame larger than it, and a payload larger than it, whole and cut off.
	var burst []byte
	for i := range 100 {
		burst, _ = Append(burst, KindAck, Ack{Seq: i, Bytes: i << 10})
	}
	f.Add(append(burst, frames(Segment{ID: 0, Data: payload[:16]})...))
	long, _ := Append(nil, KindError, Error{Message: string(payload[:1000])})
	f.Add(append(long, frames(Segment{ID: 0, Data: payload[:16]})...))
	large := frames(Segment{ID: 1, Data: payload[:1000]})
	f.Add(large)
	f.Add(large[:len(large)-10])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, way := range readWays {
			t.Run(way.name, func(t *testing.T) { segmentStream(t, data, way.wrap) })
		}
	})
}

// readWays are the ways a stream reaches a Reader under test: whole per
// Read, one byte per Read, and half of what each Read asks for.
var readWays = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// segmentStream runs FuzzSegmentStream's comparison on data, the Reader
// reading it through wrap.
func segmentStream(t *testing.T, data []byte, wrap func(io.Reader) io.Reader) {
	var store [slotSegs][]byte
	held, refHeld := map[int]bool{}, map[int]bool{}
	src, ref := bytes.NewReader(data), bytes.NewReader(data)
	rd := freshReader(wrap(src))
	for frame := 0; ; frame++ {
		env, seg, err := rd.NextSegment(func(id, quality, n int) ([]byte, error) {
			if err := refuseSlot(held, id, n); err != nil {
				return nil, err
			}
			store[id] = make([]byte, n)
			return store[id], nil
		})
		renv, rerr := Read(ref)
		var rseg Segment
		if rerr == nil && renv.Kind == KindSegment {
			if rerr = renv.Decode(&rseg); rerr == nil {
				rerr = refuseSlot(refHeld, rseg.ID, len(rseg.Data))
			}
		}
		got, want := streamEnd(err), streamEnd(rerr)
		if got == "refused" && want == "frame error" {
			return
		}
		if got != want {
			t.Fatalf("frame %d: NextSegment stopped with %v, Read and Decode with %v", frame, err, rerr)
		}
		if got != "" {
			return
		}
		switch {
		case env.Kind != renv.Kind:
			t.Fatalf("frame %d: NextSegment read a %s, Read a %s", frame, env.Kind, renv.Kind)
		case env.Kind != KindSegment && !bytes.Equal(env.Body, renv.Body):
			t.Fatalf("frame %d: %s fields differ: %x against %x", frame, env.Kind, env.Body, renv.Body)
		case seg.ID != rseg.ID || seg.Quality != rseg.Quality || !bytes.Equal(seg.Data, rseg.Data):
			t.Fatalf("frame %d: NextSegment read segment %d q%d %x, Read and Decode %d q%d %x",
				frame, seg.ID, seg.Quality, seg.Data, rseg.ID, rseg.Quality, rseg.Data)
		case src.Len()+rd.buffered() != ref.Len():
			t.Fatalf("frame %d: after a %s NextSegment left %d bytes unconsumed and Read %d", frame, env.Kind, src.Len()+rd.buffered(), ref.Len())
		}
	}
}
