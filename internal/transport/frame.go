package transport

import (
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

// bufPool recycles outgoing frames and the buffers ReadExpect decodes out
// of. A buffer is free the moment the call that took it returns: io.Writer
// must not retain its argument, and decoding copies out of a pooled buffer.
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
	ok := c.fields(body)
	if !ok && kind.known() {
		c.b, ok = kinds[kind].byValue(c.b, body)
	}
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

// readFrame reads one frame in two reads — the length, then the rest —
// and returns its kind and fields. With own set the fields are a buffer of
// exactly the frame's size that belongs to the caller; otherwise they sit
// in *bp, grown if need be, and are valid until *bp returns to bufPool.
func readFrame(r io.Reader, bp *[]byte, own bool) (Kind, []byte, error) {
	buf := (*bp)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: reading length: %w", err)
	}
	n := int(binary.BigEndian.Uint32(buf))
	switch {
	case n > MaxMessageSize:
		return 0, nil, ErrMessageTooLarge
	case n < 2:
		return 0, nil, fmt.Errorf("%w: %d bytes cannot hold a version and a kind", ErrMalformedFrame, n)
	case own:
		buf = make([]byte, n)
	case n > cap(*bp):
		*bp = make([]byte, n)
		buf = *bp
	default:
		buf = (*bp)[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrMalformedFrame, n)
		}
		return 0, nil, fmt.Errorf("transport: reading body: %w", err)
	}
	if buf[0] != wireVersion {
		return 0, nil, fmt.Errorf("%w: frame starts with 0x%02x, want %d", ErrWireVersion, buf[0], wireVersion)
	}
	kind := Kind(buf[1])
	if !kind.known() {
		return 0, nil, fmt.Errorf("%w: unknown kind %d", ErrMalformedFrame, buf[1])
	}
	return kind, buf[2:], nil
}

// Read receives one framed message envelope. It is small enough to inline,
// so an envelope that does not outlive its caller costs no allocation
// beyond its body.
func Read(r io.Reader) (*Envelope, error) {
	var env Envelope
	if err := env.read(r); err != nil {
		return nil, err
	}
	return &env, nil
}

func (e *Envelope) read(r io.Reader) (err error) {
	bp := bufPool.Get().(*[]byte)
	e.Kind, e.Body, err = readFrame(r, bp, true)
	bufPool.Put(bp)
	return err
}

// ReadExpect receives one message and requires it to be of the given kind,
// decoding its body (out of a pooled buffer) into out. A received
// KindError is surfaced as a *RemoteError.
func ReadExpect(r io.Reader, kind Kind, out any) error {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	got, body, err := readFrame(r, bp, false)
	if err != nil {
		return err
	}
	if got == KindError {
		var e Error
		if err := decode(got, body, &e, false); err != nil {
			return err
		}
		return &RemoteError{Message: e.Message}
	}
	if got != kind {
		return fmt.Errorf("transport: got %s, want %s", got, kind)
	}
	if out == nil {
		return nil
	}
	return decode(kind, body, out, false)
}

// Decode decodes the envelope's fields into out, a pointer to the message
// struct of its kind. []byte fields of out alias e.Body.
func (e *Envelope) Decode(out any) error {
	return decode(e.Kind, e.Body, out, true)
}

// decode runs out's field list over body and requires it to consume body
// exactly. alias says whether body belongs to out's owner, that is whether
// []byte fields may point into it.
func decode(kind Kind, body []byte, out any, alias bool) error {
	c := coder{b: body, dec: true, alias: alias}
	switch {
	case !c.fields(out):
		return fmt.Errorf("transport: decoding %s: destination is not a pointer to a wire message", kind)
	case c.bad != "":
		return fmt.Errorf("transport: decoding %s: %w: %s", kind, ErrMalformedFrame, c.bad)
	case c.i != len(c.b):
		return fmt.Errorf("transport: decoding %s: %w: %d bytes after the last field", kind, ErrMalformedFrame, len(c.b)-c.i)
	}
	return nil
}
