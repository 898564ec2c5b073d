package media

// Quality is a bitrate-class index for one segment's encoding: 0 is full
// quality, and each step halves the nominal byte size — the paper's dyadic
// R0/2^c offer ladder applied to the media itself, so a congested session
// can downgrade one class and keep playing instead of stalling.
type Quality int

// MaxQuality bounds the downgrade ladder. Below R0/2^4 the rendition is no
// longer watchable; sessions stall rather than degrade further.
const MaxQuality Quality = 4

// Valid reports whether q is on the ladder.
func (q Quality) Valid() bool { return q >= 0 && q <= MaxQuality }

// SizeAt returns the byte size of one segment encoded at quality q: the
// full segment size halved once per class.
func (f *File) SizeAt(q Quality) int {
	return max(1, f.SegmentBytes>>uint(q))
}

// SegmentContentAt returns the rendition of segment id at quality q: every
// 2^q-th byte of the canonical full-quality content, SizeAt(q) bytes in
// all, so a downgraded rendition is a strict subsample of the full one.
// It is the reference a receiver checks delivery against byte for byte at
// any class (see IsSegmentContent), filled straight from the content
// formula. SegmentContent is the full-quality special case.
func SegmentContentAt(f *File, id SegmentID, q Quality) Segment {
	data := make([]byte, f.SizeAt(q))
	fillCanonical(data, id, q)
	return Segment{ID: id, Quality: q, Data: data}
}
