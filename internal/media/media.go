// Package media models the constant-bit-rate (CBR) media file shared by the
// peer-to-peer streaming system.
//
// Following Section 2 of the paper, the media file is partitioned into small
// sequential segments of equal size; the stream is CBR, so every segment has
// the same playback time δt (typically on the order of seconds). A peer that
// plays the file consumes segment s during the interval
// [start + s·δt, start + (s+1)·δt), where start is the playback start time.
package media

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"
)

// SegmentID identifies a segment by its position in the file (0-based).
type SegmentID int

// File describes a CBR media file.
type File struct {
	// Name identifies the media item (e.g. "popular-video").
	Name string
	// Segments is the total number of equal-size segments.
	Segments int
	// SegmentBytes is the size of each segment in bytes.
	SegmentBytes int
	// SegmentTime is δt: the playback duration of one segment.
	SegmentTime time.Duration
}

// Validate returns an error if the file description is unusable.
func (f *File) Validate() error {
	switch {
	case f.Name == "":
		return errors.New("media: file needs a name")
	case f.Segments <= 0:
		return fmt.Errorf("media: %q has %d segments, want > 0", f.Name, f.Segments)
	case f.SegmentBytes <= 0:
		return fmt.Errorf("media: %q segment size %d, want > 0", f.Name, f.SegmentBytes)
	case f.SegmentTime <= 0:
		return fmt.Errorf("media: %q segment time %v, want > 0", f.Name, f.SegmentTime)
	}
	return nil
}

// Duration is the total playback time of the file ("show time").
func (f *File) Duration() time.Duration {
	return time.Duration(f.Segments) * f.SegmentTime
}

// TotalBytes is the size of the whole file.
func (f *File) TotalBytes() int64 {
	return int64(f.Segments) * int64(f.SegmentBytes)
}

// PlaybackRateBps is R0 expressed in bytes per second.
func (f *File) PlaybackRateBps() float64 {
	return float64(f.SegmentBytes) / f.SegmentTime.Seconds()
}

// Segment is one unit of media data, carrying the quality class it was
// encoded at (0 = full quality; see Quality).
type Segment struct {
	ID      SegmentID
	Quality Quality
	Data    []byte
}

// Store holds the segments of one file that a peer possesses. A requesting
// peer fills its store during a session; a supplying peer serves from a
// complete store. The zero value is an empty store for a nil file; use
// NewStore.
//
// A store keeps its segments in memory of its own, allocated in chunks of
// chunkBytes (the whole file when that is smaller) the first time a segment
// of the chunk is written: each segment has a fixed slot of SegmentBytes in
// its chunk. A receiver reads a payload straight into Slot and then Commits
// it; Put copies a segment in, so the store never keeps a caller's buffer.
// Get returns a view of the slot, valid for as long as the store.
type Store struct {
	file   *File
	chunks [][]byte // nil until a segment of the chunk is first written
	per    int      // segments per chunk
	segs   []stored // indexed by SegmentID
	have   int
	// downgraded counts stored segments whose quality is below full.
	downgraded int
}

// stored describes one slot: the bytes it holds (0 means missing: no
// stored segment is empty) and the quality class they arrived at.
type stored struct {
	n int
	q Quality
}

// chunkBytes is the size a store allocates its memory in: one allocation
// per chunk instead of one per segment, and no zeroing of a whole file
// before a session's first segment can be read.
const chunkBytes = 256 << 10

// NewStore returns an empty store for the given file.
func NewStore(f *File) (*Store, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	per := max(1, chunkBytes/f.SegmentBytes)
	return &Store{
		file:   f,
		chunks: make([][]byte, (f.Segments+per-1)/per),
		per:    per,
		segs:   make([]stored, f.Segments),
	}, nil
}

// NewSeededStore returns a store pre-filled with deterministic synthetic
// content for every segment, as held by a "seed" supplying peer: each slot
// is filled in place with SegmentContent, so that transfers can be
// verified end to end.
func NewSeededStore(f *File) (*Store, error) {
	s, err := NewStore(f)
	if err != nil {
		return nil, err
	}
	for id := range s.segs {
		fillCanonical(s.slot(SegmentID(id)), SegmentID(id), 0)
		s.segs[id] = stored{n: f.SegmentBytes}
	}
	s.have = f.Segments
	return s, nil
}

// SegmentContent generates the canonical synthetic content of a segment at
// full quality, which lets tests verify byte-exact delivery without
// shipping a real media file.
func SegmentContent(f *File, id SegmentID) Segment {
	return SegmentContentAt(f, id, 0)
}

// contentPeriod is the period of the canonical content: byte j of segment
// id at quality q is (id·131 + j·2^q·31) mod 251, and 31 and 251 are
// coprime, so the period is 251 at every stride 2^q.
const contentPeriod = 251

// fillCanonical writes the canonical rendition of segment id (id ≥ 0) at
// quality q into dst: one period by the formula, then doubled by copy until
// dst is full.
func fillCanonical(dst []byte, id SegmentID, q Quality) {
	p := min(len(dst), contentPeriod)
	for j := range p {
		dst[j] = byte((int(id)*131 + j<<uint(q)*31) % contentPeriod)
	}
	for p < len(dst) {
		p += copy(dst[p:], dst[:p])
	}
}

// IsSegmentContent reports whether seg is SegmentContentAt(f, seg.ID,
// seg.Quality) byte for byte, without building it: SizeAt bytes whose
// first period is fillCanonical's, on the stack, and which repeat with
// that period.
func IsSegmentContent(f *File, seg Segment) bool {
	d := seg.Data
	if !seg.Quality.Valid() || len(d) != f.SizeAt(seg.Quality) {
		return false
	}
	var period [contentPeriod]byte
	p := min(len(d), contentPeriod)
	fillCanonical(period[:p], seg.ID, seg.Quality)
	return bytes.Equal(d[:p], period[:p]) && bytes.Equal(d[p:], d[:len(d)-p])
}

// Slot returns the first n bytes of segment id's slot, for a payload of n
// bytes at quality q to be read into and then committed, once the store has
// checked that it would accept that segment (see Put). The slot's chunk is
// allocated on first touch.
func (s *Store) Slot(id SegmentID, q Quality, n int) ([]byte, error) {
	if err := s.check(id, q, n); err != nil {
		return nil, err
	}
	return s.slot(id)[:n], nil
}

// Commit records segment id as held: the n bytes at quality q now in its
// slot. It refuses what Put refuses.
func (s *Store) Commit(id SegmentID, q Quality, n int) error {
	if err := s.check(id, q, n); err != nil {
		return err
	}
	s.segs[id] = stored{n: n, q: q}
	if q > 0 {
		s.downgraded++
	}
	s.have++
	return nil
}

// Put copies a segment into its slot and commits it. It rejects
// out-of-range IDs and qualities off the ladder; re-putting an existing
// segment is an error (it indicates a protocol bug: no supplier should
// send a segment twice). A segment at quality q must be exactly
// SizeAt(q) bytes, the only size SegmentContentAt produces; checking its
// bytes is the receiver's job.
func (s *Store) Put(seg Segment) error {
	dst, err := s.Slot(seg.ID, seg.Quality, len(seg.Data))
	if err != nil {
		return err
	}
	copy(dst, seg.Data)
	return s.Commit(seg.ID, seg.Quality, len(seg.Data))
}

// check reports why the store would refuse segment id of n bytes at
// quality q, or nil.
func (s *Store) check(id SegmentID, q Quality, n int) error {
	if id < 0 || int(id) >= s.file.Segments {
		return fmt.Errorf("media: segment %d out of range [0,%d)", id, s.file.Segments)
	}
	if !q.Valid() {
		return fmt.Errorf("media: segment %d quality %d out of range [0,%d]", id, q, MaxQuality)
	}
	if want := s.file.SizeAt(q); n != want {
		return fmt.Errorf("media: segment %d q%d has %d bytes, want %d", id, q, n, want)
	}
	if s.segs[id].n != 0 {
		return fmt.Errorf("media: segment %d already stored", id)
	}
	return nil
}

// slot returns the whole slot of segment id, allocating its chunk if this
// is the chunk's first touch.
func (s *Store) slot(id SegmentID) []byte {
	c, at := int(id)/s.per, int(id)%s.per*s.file.SegmentBytes
	if s.chunks[c] == nil {
		s.chunks[c] = make([]byte, min(s.per, s.file.Segments-c*s.per)*s.file.SegmentBytes)
	}
	return s.chunks[c][at : at+s.file.SegmentBytes : at+s.file.SegmentBytes]
}

// Get returns the segment with the given ID, or false if it is missing.
// Its Data is a view of the store's slot.
func (s *Store) Get(id SegmentID) (Segment, bool) {
	if !s.Has(id) {
		return Segment{}, false
	}
	st := s.segs[id]
	return Segment{ID: id, Quality: st.q, Data: s.slot(id)[:st.n:st.n]}, true
}

// Rendition returns segment id as a supplier sends it at quality q, read
// from the store alone. Held at quality q or better, it is the held view
// as it is, labelled with the quality it is held at. Held at a worse
// quality q_h < q, it is every 2^(q−q_h)-th held byte, SizeAt(q) of them,
// written into *buf, which the caller owns and Rendition grows when it is
// short: that Data is valid until the next call with the same buffer.
// Every 2^a-th byte of every 2^b-th byte is every 2^(a+b)-th byte,
// so a subsample of SegmentContentAt(q_h) is SegmentContentAt(q). It
// reports false if the store does not hold the segment.
func (s *Store) Rendition(id SegmentID, q Quality, buf *[]byte) (Segment, bool) {
	seg, ok := s.Get(id)
	if !ok || seg.Quality >= q {
		return seg, ok
	}
	n, stride := s.file.SizeAt(q), 1<<uint(q-seg.Quality)
	out := slices.Grow((*buf)[:0], n)[:n]
	*buf = out
	// The store holds exactly SizeAt(q_h) bytes, and SizeAt(q)−1 strides
	// fall short of that: (SegmentBytes>>q)<<(q−q_h) ≤ SegmentBytes>>q_h.
	for j := range out {
		out[j] = seg.Data[j*stride]
	}
	return Segment{ID: id, Quality: q, Data: out}, true
}

// QualityOf returns the quality class a stored segment arrived at, or -1 if
// the segment is missing.
func (s *Store) QualityOf(id SegmentID) Quality {
	if !s.Has(id) {
		return -1
	}
	return s.segs[id].q
}

// Downgraded returns how many stored segments arrived below full quality —
// the store-level view of a session's ABR activity.
func (s *Store) Downgraded() int { return s.downgraded }

// Has reports whether the segment is present.
func (s *Store) Has(id SegmentID) bool {
	return id >= 0 && int(id) < s.file.Segments && s.segs[id].n != 0
}

// Count returns how many segments are present.
func (s *Store) Count() int { return s.have }

// Complete reports whether every segment of the file is present.
func (s *Store) Complete() bool { return s.have == s.file.Segments }
