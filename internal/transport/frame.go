package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Envelope is one received frame: its kind and its still-encoded fields.
type Envelope struct {
	Kind Kind
	Body []byte
	// owned says Body is the caller's own copy (Read made it), so decoded
	// []byte fields may alias it; otherwise Body is borrowed from a Reader.
	owned bool
}

// The frame-level failures. ConnCache drops the connection on each of
// them: the stream can no longer be trusted to be synchronized.
var (
	// ErrMessageTooLarge is returned for frames beyond MaxMessageSize.
	ErrMessageTooLarge = errors.New("transport: message exceeds size limit")
	// ErrMalformedFrame is returned for a frame that is no message's
	// encoding: too short, cut off, of unknown kind, refused by decoding.
	ErrMalformedFrame = errors.New("transport: malformed frame")
	// ErrWireVersion is returned for a frame of another wire version.
	ErrWireVersion = errors.New("transport: unsupported wire version")
)

// maxPooledFrame caps the capacity a buffer may carry back into bufPool,
// so one outsized message does not pin memory forever.
const maxPooledFrame = 64 << 10

// bufPool recycles outgoing frames and the buffers a Reader decodes out of.
// A buffer is free the moment the call or the Reader that took it is done:
// io.Writer must not retain its argument, and decoding copies out of a
// pooled buffer.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		bufPool.Put(bp)
	}
}

// Write frames and sends one message; body is the kind's message struct,
// by value or by pointer (nil or struct{}{} for a kind without fields).
// The frame goes out in one Write: one syscall, one virtual delivery.
func Write(w io.Writer, kind Kind, body any) error {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	var err error
	if *bp, err = Append((*bp)[:0], kind, body); err != nil {
		return err
	}
	if _, err := w.Write(*bp); err != nil {
		return fmt.Errorf("transport: writing %s: %w", kind, err)
	}
	return nil
}

// Append appends the frame of one message to b and returns the extended
// slice; body is as for Write. Frames appended back to back read back one
// by one, so a batch of them can leave in a single Write. On failure the
// frames already in b are returned as they were.
func Append(b []byte, kind Kind, body any) ([]byte, error) {
	at := len(b)
	c := coder{b: append(b, 0, 0, 0, 0, wireVersion, byte(kind))}
	ok := c.fields(body) || c.value(body)
	n := len(c.b) - at - 4
	switch {
	case !ok:
		return c.b[:at], fmt.Errorf("transport: writing %s: body is not a wire message", kind)
	case n > MaxMessageSize:
		return c.b[:at], ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(c.b[at:], uint32(n))
	return c.b, nil
}

// readFrame reads one frame into *bp, grown if need be, in two reads — the
// length, then the rest — and returns its kind and fields, which are valid
// until *bp is read into again or returns to bufPool.
func readFrame(r io.Reader, bp *[]byte) (Kind, []byte, error) {
	n, err := readLength(r, bp)
	if err != nil {
		return 0, nil, err
	}
	buf := grow(bp, n)
	if err := readBody(r, buf, n); err != nil {
		return 0, nil, err
	}
	kind, err := frameKind(buf)
	if err != nil {
		return 0, nil, err
	}
	return kind, buf[2:], nil
}

// readLength reads a frame's length prefix and checks that it can hold a
// version and a kind and stays within MaxMessageSize.
func readLength(r io.Reader, bp *[]byte) (int, error) {
	buf := grow(bp, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("transport: reading length: %w", err)
	}
	n := int(binary.BigEndian.Uint32(buf))
	switch {
	case n > MaxMessageSize:
		return 0, ErrMessageTooLarge
	case n < 2:
		return 0, fmt.Errorf("%w: %d bytes cannot hold a version and a kind", ErrMalformedFrame, n)
	}
	return n, nil
}

// grow returns the first n bytes of *bp, replacing *bp by a larger buffer
// first if it cannot hold them.
func grow(bp *[]byte, n int) []byte {
	if n > cap(*bp) {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// readBody fills buf with part of an n-byte frame; a stream that ends
// inside it is a malformed frame.
func readBody(r io.Reader, buf []byte, n int) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrMalformedFrame, n)
		}
		return fmt.Errorf("transport: reading body: %w", err)
	}
	return nil
}

// frameKind checks the version byte heading a frame's body and returns the
// kind byte after it.
func frameKind(buf []byte) (Kind, error) {
	if buf[0] != wireVersion {
		return 0, fmt.Errorf("%w: frame starts with 0x%02x, want %d", ErrWireVersion, buf[0], wireVersion)
	}
	kind := Kind(buf[1])
	if !kind.known() {
		return 0, fmt.Errorf("%w: unknown kind %d", ErrMalformedFrame, buf[1])
	}
	return kind, nil
}

// Reader reads the frames of one connection, each into the one buffer it
// took from bufPool: an envelope's Body, and anything that aliases it, is
// valid until the next call to Next or NextSegment. Decoding copies out of
// it, so a decoded message keeps nothing of the buffer. A Reader never reads
// past the frame it returns, so two Readers may take turns on one stream.
// Close gives the buffer back.
type Reader struct {
	r  io.Reader
	bp *[]byte
}

// NewReader returns a Reader of r.
func NewReader(r io.Reader) Reader {
	return Reader{r: r, bp: bufPool.Get().(*[]byte)}
}

// Close returns the Reader's buffer to bufPool; the Reader must not be used
// after it.
func (rd *Reader) Close() {
	putBuf(rd.bp)
	rd.bp = nil
}

// Next reads one frame.
func (rd *Reader) Next() (Envelope, error) {
	kind, body, err := readFrame(rd.r, rd.bp)
	return Envelope{Kind: kind, Body: body}, err
}

// segmentHead is the most of a Segment frame's body that comes before its
// payload: the version and kind bytes and three varints.
const segmentHead = 2 + 3*binary.MaxVarintLen64

// NextSegment reads one frame as Next does, except that a Segment frame's
// payload goes straight into the buffer slot returns for it. slot is called
// with the segment's ID, quality and payload length once the frame's header
// has been read and checked — in one read of at most segmentHead bytes, so
// with no more of the payload than fits beside the header — and returns at
// least n bytes to read the payload into, or an error, which NextSegment
// returns as it is with the rest of the payload left unread. For a Segment
// frame the envelope carries only the kind, and the segment's Data is the
// payload in the slot.
func (rd *Reader) NextSegment(slot func(id, quality, n int) ([]byte, error)) (Envelope, Segment, error) {
	n, err := readLength(rd.r, rd.bp)
	if err != nil {
		return Envelope{}, Segment{}, err
	}
	head := grow(rd.bp, min(n, segmentHead))
	if err := readBody(rd.r, head, n); err != nil {
		return Envelope{}, Segment{}, err
	}
	kind, err := frameKind(head)
	if err != nil {
		return Envelope{}, Segment{}, err
	}
	if kind != KindSegment {
		buf := *rd.bp
		if n > cap(buf) {
			buf = make([]byte, n)
			copy(buf, head)
			*rd.bp = buf
		}
		buf = buf[:n]
		if err := readBody(rd.r, buf[len(head):], n); err != nil {
			return Envelope{}, Segment{}, err
		}
		return Envelope{Kind: kind, Body: buf[2:]}, Segment{}, nil
	}
	var seg Segment
	var size uint64
	c := coder{b: head[2:], dec: true}
	vint(&c, &seg.ID)
	vint(&c, &seg.Quality)
	c.uint64(&size)
	if c.bad != "" {
		return Envelope{}, Segment{}, fmt.Errorf("transport: decoding %s: %w: %s", kind, ErrMalformedFrame, c.bad)
	}
	if rest := uint64(n - 2 - c.i); size != rest {
		return Envelope{}, Segment{}, fmt.Errorf("transport: decoding %s: %w: payload of %d bytes in a frame with %d left", kind, ErrMalformedFrame, size, rest)
	}
	dst, err := slot(seg.ID, seg.Quality, int(size))
	if err != nil {
		return Envelope{}, Segment{}, err
	}
	seg.Data = dst[:size]
	got := copy(seg.Data, head[2+c.i:])
	if err := readBody(rd.r, seg.Data[got:], n); err != nil {
		return Envelope{}, Segment{}, err
	}
	return Envelope{Kind: kind}, seg, nil
}

// Read receives one framed message envelope whose Body is the caller's own
// copy, so []byte fields Decode yields may alias it. It is small enough to
// inline, so an envelope that does not outlive its caller costs no
// allocation beyond its body.
func Read(r io.Reader) (*Envelope, error) {
	var env Envelope
	if err := env.read(r); err != nil {
		return nil, err
	}
	return &env, nil
}

func (e *Envelope) read(r io.Reader) error {
	rd := NewReader(r)
	defer rd.Close()
	env, err := rd.Next()
	*e = Envelope{Kind: env.Kind, Body: bytes.Clone(env.Body), owned: true}
	return err
}

// ReadExpect receives one message and requires it to be of the given kind,
// decoding its body (out of a pooled buffer) into out. A received
// KindError is surfaced as a *RemoteError.
func ReadExpect(r io.Reader, kind Kind, out any) error {
	rd := NewReader(r)
	defer rd.Close()
	env, err := rd.Next()
	if err != nil {
		return err
	}
	if env.Kind == KindError {
		var e Error
		if err := env.Decode(&e); err != nil {
			return err
		}
		return &RemoteError{Message: e.Message}
	}
	if env.Kind != kind {
		return fmt.Errorf("transport: got %s, want %s", env.Kind, kind)
	}
	if out == nil {
		return nil
	}
	return env.Decode(out)
}

// Decode decodes the envelope's fields into out, a pointer to the message
// struct of its kind. Decoded strings are copies. The one []byte field,
// Segment.Data, aliases Body on an envelope Read returned and is a copy on
// any other.
func (e *Envelope) Decode(out any) error {
	c := coder{b: e.Body, dec: true}
	switch {
	case !c.fields(out):
		return fmt.Errorf("transport: decoding %s: destination is not a pointer to a wire message", e.Kind)
	case c.bad != "":
		return fmt.Errorf("transport: decoding %s: %w: %s", e.Kind, ErrMalformedFrame, c.bad)
	case c.i != len(c.b):
		return fmt.Errorf("transport: decoding %s: %w: %d bytes after the last field", e.Kind, ErrMalformedFrame, len(c.b)-c.i)
	}
	if seg, ok := out.(*Segment); ok && !e.owned {
		seg.Data = bytes.Clone(seg.Data)
	}
	return nil
}
