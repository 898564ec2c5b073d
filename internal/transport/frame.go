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
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, pooledFrame); return &b }}

// pooledFrame is the size bufPool's buffers start at.
const pooledFrame = 512

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
// until *bp is read into again or returns to bufPool. It never reads past the
// frame: it is Read's and ReadExpect's, the exact one-frame reads.
func readFrame(r io.Reader, bp *[]byte) (Kind, []byte, error) {
	buf := grow(bp, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, lengthErr(err)
	}
	n, err := frameLength(buf)
	if err != nil {
		return 0, nil, err
	}
	buf = grow(bp, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, bodyErr(err, n)
	}
	kind, err := frameKind(buf)
	if err != nil {
		return 0, nil, err
	}
	return kind, buf[2:], nil
}

// frameLength decodes a frame's length prefix and checks that the frame can
// hold a version and a kind and stays within MaxMessageSize.
func frameLength(b []byte) (int, error) {
	n := int(binary.BigEndian.Uint32(b))
	switch {
	case n > MaxMessageSize:
		return 0, ErrMessageTooLarge
	case n < 2:
		return 0, fmt.Errorf("%w: %d bytes cannot hold a version and a kind", ErrMalformedFrame, n)
	}
	return n, nil
}

// lengthErr is the error of a read that stopped inside a length prefix:
// io.EOF where the stream ended before it, between frames.
func lengthErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.EOF
	}
	return fmt.Errorf("transport: reading length: %w", err)
}

// bodyErr is the error of a read that stopped inside an n-byte frame; a
// stream that ends there is a malformed frame.
func bodyErr(err error, n int) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrMalformedFrame, n)
	}
	return fmt.Errorf("transport: reading body: %w", err)
}

// grow returns the first n bytes of *bp, replacing *bp by a larger buffer
// first if it cannot hold them.
func grow(bp *[]byte, n int) []byte {
	if n > cap(*bp) {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
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

// readAhead is what a Reader's buffer grows to for a segment payload larger
// than the pool's starting buffer: room for a bulk burst of segments per
// fill, and no more than a buffer may carry back into bufPool.
const readAhead = maxPooledFrame

// Reader reads the frames of one connection through the one buffer it took
// from bufPool. Each fill is one Read of whatever the connection has, up to
// the buffer's room, and frames are decoded out of the buffer, so a burst of
// frames that left in one write costs about one read. The buffer is the
// pool's, at whatever size a past user grew it to, and grows only for a
// frame that does not fit, to the frame's size, or for a segment payload
// larger than pooledFrame, to readAhead: a bulk stream reads ahead alike
// whichever buffer it drew, and a stream of small segments never grows it.
//
// An envelope's Body, and anything that aliases it, is valid until the next
// call to Next, NextSegment or Expect. Decoding copies out of the buffer, so
// a decoded message keeps nothing of it. A Reader owns the rest of its
// connection — the bytes it has read ahead are buffered in it — so whoever
// reads the connection next must be handed the Reader, never open another.
// Close gives the buffer back.
type Reader struct {
	r  io.Reader
	bp *[]byte
	// at and end bound the bytes read and not yet consumed: (*bp)[at:end].
	at, end int
}

// NewReader returns a Reader of r.
func NewReader(r io.Reader) Reader {
	return Reader{r: r, bp: bufPool.Get().(*[]byte)}
}

// Close returns the Reader's buffer to bufPool; the Reader must not be used
// after it. Closing a zero Reader, or one closed before, does nothing.
func (rd *Reader) Close() {
	if rd.bp != nil {
		putBuf(rd.bp)
		rd.bp = nil
	}
}

// buffered is the number of bytes read from the connection and not yet
// consumed.
func (rd *Reader) buffered() int { return rd.end - rd.at }

// fill reads until at least need bytes are buffered. It moves the buffered
// bytes to the front of the buffer when need does not fit behind them,
// growing the buffer to need bytes when it is smaller. A Read error that
// leaves fewer buffered is returned as io.ReadFull would return it:
// io.ErrUnexpectedEOF for a stream that ended with some of them read.
func (rd *Reader) fill(need int) error {
	if rd.buffered() >= need {
		return nil
	}
	if rd.at == rd.end {
		rd.at, rd.end = 0, 0
	}
	if rd.at+need > cap(*rd.bp) {
		rd.compact(need)
	}
	buf := (*rd.bp)[:cap(*rd.bp)]
	for {
		m, err := rd.r.Read(buf[rd.end:])
		rd.end += m
		switch {
		case rd.buffered() >= need:
			return nil
		case err == io.EOF && rd.end > rd.at:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		}
	}
}

// compact moves the buffered bytes to the front of the buffer, replacing it
// first by one of size bytes if it is smaller.
func (rd *Reader) compact(size int) {
	buf := *rd.bp
	if size > cap(buf) {
		buf = make([]byte, size)
	}
	rd.end = copy(buf[:cap(buf)], (*rd.bp)[rd.at:rd.end])
	rd.at = 0
	*rd.bp = buf
}

// length buffers the next frame's length prefix and returns the length.
func (rd *Reader) length() (int, error) {
	if err := rd.fill(4); err != nil {
		return 0, lengthErr(err)
	}
	return frameLength((*rd.bp)[rd.at:rd.end])
}

// frame buffers the rest of the n-byte frame whose length prefix is
// buffered, consumes it and returns its envelope.
func (rd *Reader) frame(n int) (Envelope, error) {
	if err := rd.fill(4 + n); err != nil {
		return Envelope{}, bodyErr(err, n)
	}
	body := (*rd.bp)[rd.at+4 : rd.at+4+n]
	kind, err := frameKind(body)
	if err != nil {
		return Envelope{}, err
	}
	rd.at += 4 + n
	return Envelope{Kind: kind, Body: body[2:]}, nil
}

// Next reads one frame.
func (rd *Reader) Next() (Envelope, error) {
	n, err := rd.length()
	if err != nil {
		return Envelope{}, err
	}
	return rd.frame(n)
}

// Expect reads one frame, which must be of the given kind, and decodes it
// into out unless out is nil. A KindError frame is returned as a
// *RemoteError.
func (rd *Reader) Expect(kind Kind, out any) error {
	env, err := rd.Next()
	if err != nil {
		return err
	}
	return env.expect(kind, out)
}

// segmentHead is the most of a Segment frame's body that comes before its
// payload: the version and kind bytes and three varints.
const segmentHead = 2 + 3*binary.MaxVarintLen64

// NextSegment reads one frame as Next does, except that a Segment frame's
// payload goes into the buffer slot returns for it. slot is called with the
// segment's ID, quality and payload length once the frame's header has been
// checked, before any of the payload is consumed, and returns at least n
// bytes to put the payload in, or an error, which NextSegment returns as it
// is. The payload bytes already buffered are copied into the slot; the rest
// is read through the buffer, or straight into the slot when it is at least
// the buffer's size. For a Segment frame the envelope carries only the kind,
// and the segment's Data is the payload in the slot.
func (rd *Reader) NextSegment(slot func(id, quality, n int) ([]byte, error)) (Envelope, Segment, error) {
	n, err := rd.length()
	if err != nil {
		return Envelope{}, Segment{}, err
	}
	if err := rd.fill(4 + min(n, segmentHead)); err != nil {
		return Envelope{}, Segment{}, bodyErr(err, n)
	}
	head := (*rd.bp)[rd.at+4 : rd.at+4+min(n, segmentHead)]
	kind, err := frameKind(head)
	if err != nil {
		return Envelope{}, Segment{}, err
	}
	if kind != KindSegment {
		env, err := rd.frame(n)
		return env, Segment{}, err
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
	rd.at += 6 + c.i
	got := copy(seg.Data, (*rd.bp)[rd.at:rd.end])
	rd.at += got
	if rest := seg.Data[got:]; len(rest) > 0 {
		if len(seg.Data) > pooledFrame {
			rd.compact(readAhead) // nothing is buffered: this only grows a smaller buffer
		}
		if err := rd.readInto(rest); err != nil {
			return Envelope{}, Segment{}, bodyErr(err, n)
		}
	}
	return Envelope{Kind: kind}, seg, nil
}

// readInto fills p, the rest of a payload, with nothing buffered: through the
// buffer, or straight into p when p is at least the buffer's size.
func (rd *Reader) readInto(p []byte) error {
	if len(p) >= cap(*rd.bp) {
		_, err := io.ReadFull(rd.r, p)
		return err
	}
	if err := rd.fill(len(p)); err != nil {
		return err
	}
	rd.at += copy(p, (*rd.bp)[rd.at:rd.end])
	return nil
}

// Read receives one framed message envelope whose Body is the caller's own
// copy, so []byte fields Decode yields may alias it. It is small enough to
// inline, so an envelope that does not outlive its caller costs no
// allocation beyond its body. It never reads past the frame, so the next read
// of r starts at the next one.
func Read(r io.Reader) (*Envelope, error) {
	var env Envelope
	if err := env.read(r); err != nil {
		return nil, err
	}
	return &env, nil
}

func (e *Envelope) read(r io.Reader) error {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	kind, body, err := readFrame(r, bp)
	*e = Envelope{Kind: kind, Body: bytes.Clone(body), owned: true}
	return err
}

// ReadExpect receives one message and requires it to be of the given kind,
// decoding its body (out of a pooled buffer) into out unless out is nil. A
// received KindError is surfaced as a *RemoteError. Like Read, it never reads
// past the frame.
func ReadExpect(r io.Reader, kind Kind, out any) error {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	got, body, err := readFrame(r, bp)
	if err != nil {
		return err
	}
	env := Envelope{Kind: got, Body: body}
	return env.expect(kind, out)
}

// expect requires the envelope to be of the given kind and decodes it into
// out unless out is nil; a KindError envelope is returned as a *RemoteError.
func (e *Envelope) expect(kind Kind, out any) error {
	if e.Kind == KindError {
		var re Error
		if err := e.Decode(&re); err != nil {
			return err
		}
		return &RemoteError{Message: re.Message}
	}
	if e.Kind != kind {
		return fmt.Errorf("transport: got %s, want %s", e.Kind, kind)
	}
	if out == nil {
		return nil
	}
	return e.Decode(out)
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
