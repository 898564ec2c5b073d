package system

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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

// chordSource discovers candidates by routing random-key lookups on a
// Chord ring. New suppliers are queued and enter the ring at the next
// stabilization (at most once per stabilizeEvery of simulated time),
// mirroring deployed Chord's periodic finger repair; a full eager rebuild
// per join would make large simulations quadratic.
type chordSource struct {
	ring           *chord.Ring
	pending        []chord.Member
	now            func() time.Duration
	stabilizeEvery time.Duration
	lastStabilize  time.Duration
	bootstrap      string
	sampled        []lookup.Entry[int] // sample's result buffer
}

func newChordSource(now func() time.Duration, stabilizeEvery time.Duration) *chordSource {
	ring, err := chord.New(nil)
	if err != nil {
		panic(fmt.Sprintf("system: empty chord ring: %v", err))
	}
	return &chordSource{
		ring:           ring,
		now:            now,
		stabilizeEvery: stabilizeEvery,
		lastStabilize:  -1,
	}
}

func chordName(id int) string { return "p" + strconv.Itoa(id) }

func (c *chordSource) register(id int, class bandwidth.Class) error {
	c.pending = append(c.pending, chord.Member{Name: chordName(id), Class: class})
	if c.bootstrap == "" {
		// The very first supplier joins immediately so lookups can route.
		c.stabilize()
	}
	return nil
}

// stabilize flushes pending joins into the ring with one rebuild.
func (c *chordSource) stabilize() {
	if len(c.pending) == 0 {
		return
	}
	members := make([]chord.Member, 0, c.ring.Len()+len(c.pending))
	for _, p := range c.ring.Peers() {
		members = append(members, chord.Member{Name: p.Name, Class: p.Class})
	}
	members = append(members, c.pending...)
	ring, err := chord.New(members)
	if err != nil {
		panic(fmt.Sprintf("system: rebuilding chord ring: %v", err))
	}
	c.ring = ring
	c.pending = c.pending[:0]
	if c.bootstrap == "" {
		c.bootstrap = c.ring.Peers()[0].Name
	}
	c.lastStabilize = c.now()
}

func (c *chordSource) sample(m int, rng *rand.Rand) []lookup.Entry[int] {
	if len(c.pending) > 0 && (c.lastStabilize < 0 || c.now()-c.lastStabilize >= c.stabilizeEvery) {
		c.stabilize()
	}
	if c.ring.Len() == 0 {
		return nil
	}
	peers, _, err := c.ring.SampleCandidates(c.bootstrap, m, rng)
	if err != nil {
		panic(fmt.Sprintf("system: chord sampling: %v", err))
	}
	c.sampled = c.sampled[:0]
	for _, p := range peers {
		id, err := strconv.Atoi(strings.TrimPrefix(p.Name, "p"))
		if err != nil {
			panic(fmt.Sprintf("system: bad chord peer name %q", p.Name))
		}
		c.sampled = append(c.sampled, lookup.Entry[int]{ID: id, Class: p.Class})
	}
	return c.sampled
}
