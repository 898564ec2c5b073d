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
	n := f.SegmentBytes >> uint(q)
	if n < 1 {
		n = 1
	}
	return n
}

// SegmentContentAt returns the rendition of segment id at quality q: every
// 2^q-th byte of the canonical full-quality content, SizeAt(q) bytes in
// all, so a downgraded rendition is a strict subsample of the full one.
// Both ends of a transfer regenerate it from (file, id, q) alone, which
// lets the receiver check delivery byte for byte at any class.
// SegmentContent is the full-quality special case.
func SegmentContentAt(f *File, id SegmentID, q Quality) Segment {
	full := canonicalContent(f, id)
	if q <= 0 {
		return Segment{ID: id, Data: full}
	}
	stride := 1 << uint(q)
	out := make([]byte, 0, f.SizeAt(q))
	for i := 0; i < len(full) && len(out) < cap(out); i += stride {
		out = append(out, full[i])
	}
	return Segment{ID: id, Quality: q, Data: out}
}
