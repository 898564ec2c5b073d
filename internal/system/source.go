package system

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chord"
	"p2pstream/internal/lookup"
)

// candidateSource abstracts how a requesting peer discovers its M random
// candidate supplying peers (paper Section 4.2, footnote 4): a centralized
// directory or a Chord-style distributed lookup.
type candidateSource interface {
	// register adds a new supplying peer.
	register(id int, class bandwidth.Class) error
	// sample returns up to m distinct candidates, valid until the next
	// call.
	sample(m int, rng *rand.Rand) []lookup.Entry[int]
}

// directorySource is the default: uniform sampling from a registry.
type directorySource struct {
	dir     *lookup.Directory[int]
	sampled []lookup.Entry[int] // sample's result buffer
}

func newDirectorySource(numPeers int) *directorySource {
	return &directorySource{dir: lookup.NewDirectorySized[int](numPeers)}
}

func (d *directorySource) register(id int, class bandwidth.Class) error {
	return d.dir.Register(lookup.Entry[int]{ID: id, Class: class})
}

func (d *directorySource) sample(m int, rng *rand.Rand) []lookup.Entry[int] {
	d.sampled = d.dir.SampleInto(d.sampled, m, rng)
	return d.sampled
}

// chordSource discovers candidates as Chord would: each draw takes the
// owner of a random key, the first supplier clockwise from the key's hash
// on the identifier circle. A routed Chord lookup over exact fingers ends
// at that same owner, so the simulator keeps only the circle: a slab of
// suppliers sorted by position, indexed by the positions' top bits. New
// suppliers are queued and enter the ring at the next stabilization (at
// most once per stabilizeEvery of simulated time), mirroring deployed
// Chord's periodic repair; a lookup meanwhile cannot find them.
type chordSource struct {
	ring    []ringMember // sorted by pos
	spare   []ringMember // stabilize's merge buffer
	pending []ringMember
	// first[b] is the index of the first member in bucket b or past it,
	// with one more entry ending the last bucket; a position's bucket is
	// pos >> shift.
	first          []int32
	shift          uint
	now            func() time.Duration
	stabilizeEvery time.Duration
	lastStabilize  time.Duration
	// bootstrap is the first supplier. Requesters' lookups enter the ring
	// through it, so no sample returns it.
	bootstrap int
	key       []byte              // hash's key buffer
	sampled   []lookup.Entry[int] // sample's result buffer
}

// ringMember is one supplier on the circle, at pos = HashKey("p"+id).
type ringMember struct {
	pos   uint64
	id    int
	class bandwidth.Class
}

func newChordSource(now func() time.Duration, stabilizeEvery time.Duration) *chordSource {
	return &chordSource{now: now, stabilizeEvery: stabilizeEvery}
}

// hash returns chord.HashKey(prefix + n) without allocating.
func (c *chordSource) hash(prefix string, n int64) uint64 {
	c.key = strconv.AppendInt(append(c.key[:0], prefix...), n, 10)
	return chord.HashBytes(c.key)
}

func (c *chordSource) register(id int, class bandwidth.Class) error {
	c.pending = append(c.pending, ringMember{pos: c.hash("p", int64(id)), id: id, class: class})
	if len(c.ring) == 0 {
		// The very first supplier joins immediately so lookups can start.
		c.bootstrap = id
		c.stabilize()
	}
	return nil
}

// stabilize sorts the pending joins, merges them into the ring and
// rebuilds its index. Two suppliers on one position would make one of
// them unreachable, so that panics.
func (c *chordSource) stabilize() {
	if len(c.pending) == 0 {
		return
	}
	slices.SortFunc(c.pending, func(a, b ringMember) int { return cmp.Compare(a.pos, b.pos) })
	merged, i := c.spare[:0], 0
	for _, p := range c.pending {
		for i < len(c.ring) && c.ring[i].pos < p.pos {
			merged = append(merged, c.ring[i])
			i++
		}
		merged = append(merged, p)
	}
	c.ring, c.spare = append(merged, c.ring[i:]...), c.ring
	c.pending = c.pending[:0]
	c.lastStabilize = c.now()

	// At least as many buckets as members: positions are uniform hashes,
	// so owner's search inside one bucket is about one member long.
	width := bits.Len(uint(len(c.ring)))
	c.shift = uint(64 - width)
	c.first, i = c.first[:0], 0
	for b := uint64(0); b <= 1<<width; b++ {
		for i < len(c.ring) && c.ring[i].pos>>c.shift < b {
			if i > 0 && c.ring[i-1].pos == c.ring[i].pos {
				panic(fmt.Sprintf("system: chord position collision between p%d and p%d", c.ring[i-1].id, c.ring[i].id))
			}
			i++
		}
		c.first = append(c.first, int32(i))
	}
}

// owner returns the ring member owning position h: the first at or
// clockwise past it, found by binary search inside h's bucket. The ring
// must not be empty.
func (c *chordSource) owner(h uint64) *ringMember {
	lo, hi := int(c.first[h>>c.shift]), int(c.first[h>>c.shift+1])
	i := lo + sort.Search(hi-lo, func(k int) bool { return c.ring[lo+k].pos >= h })
	if i == len(c.ring) {
		i = 0 // wrap
	}
	return &c.ring[i]
}

// sample draws up to m distinct suppliers other than the bootstrap one,
// each the owner of the key "sample-N" for a fresh N. Owners turn up in
// proportion to their arcs, so the draws stop at 64·m to bound a ring
// with a few huge arcs.
func (c *chordSource) sample(m int, rng *rand.Rand) []lookup.Entry[int] {
	if len(c.pending) > 0 && c.now()-c.lastStabilize >= c.stabilizeEvery {
		c.stabilize()
	}
	c.sampled = c.sampled[:0]
	m = min(m, len(c.ring)-1) // everyone but the bootstrap
	for draw := 0; len(c.sampled) < m && draw < 64*m; draw++ {
		o := c.owner(c.hash("sample-", rng.Int63()))
		if o.id != c.bootstrap && !slices.ContainsFunc(c.sampled, func(e lookup.Entry[int]) bool { return e.ID == o.id }) {
			c.sampled = append(c.sampled, lookup.Entry[int]{ID: o.id, Class: o.class})
		}
	}
	return c.sampled
}
