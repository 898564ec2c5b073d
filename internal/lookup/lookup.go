// Package lookup provides the peer discovery substrate: a Napster-style
// directory from which a requesting peer obtains M randomly selected
// candidate supplying peers together with their bandwidth classes
// (paper Section 4.2, footnote 4). The same interface is served by the
// Chord-like ring in internal/chord for fully decentralized deployments.
package lookup

import (
	"fmt"
	"math/rand"

	"p2pstream/internal/bandwidth"
)

// Entry describes one supplying peer known to the directory.
type Entry[ID comparable] struct {
	ID    ID
	Class bandwidth.Class
}

// Directory is an in-memory registry of supplying peers supporting uniform
// random candidate sampling. It is not safe for concurrent use; the
// simulator is single-threaded and the live directory server serializes
// access with its own lock.
type Directory[ID comparable] struct {
	entries []Entry[ID]
	index   map[ID]int
}

// NewDirectory returns an empty directory.
func NewDirectory[ID comparable]() *Directory[ID] { return NewDirectorySized[ID](0) }

// NewDirectorySized returns an empty directory with room for n peers: a
// caller that knows its population registers it without the tables growing.
func NewDirectorySized[ID comparable](n int) *Directory[ID] {
	return &Directory[ID]{entries: make([]Entry[ID], 0, n), index: make(map[ID]int, n)}
}

// Register adds a supplying peer. Registering the same ID twice is an error
// (a peer becomes a supplier exactly once per media item).
func (d *Directory[ID]) Register(e Entry[ID]) error {
	if _, dup := d.index[e.ID]; dup {
		return fmt.Errorf("lookup: %v already registered", e.ID)
	}
	if !e.Class.Valid(bandwidth.MaxClass) {
		return fmt.Errorf("lookup: %v has invalid %v", e.ID, e.Class)
	}
	d.index[e.ID] = len(d.entries)
	d.entries = append(d.entries, e)
	return nil
}

// Refresh replaces a registered peer's entry in place — a lease renewal.
// The entry keeps its position, so what a later Sample draws from a given
// random source does not depend on when, or in which order, refreshes
// arrived.
func (d *Directory[ID]) Refresh(e Entry[ID]) error {
	i, ok := d.index[e.ID]
	if !ok {
		return fmt.Errorf("lookup: %v is not registered", e.ID)
	}
	if !e.Class.Valid(bandwidth.MaxClass) {
		return fmt.Errorf("lookup: %v has invalid %v", e.ID, e.Class)
	}
	d.entries[i] = e
	return nil
}

// Unregister removes a peer (e.g. a live node that departed). It reports
// whether the peer was present.
func (d *Directory[ID]) Unregister(id ID) bool {
	i, ok := d.index[id]
	if !ok {
		return false
	}
	last := len(d.entries) - 1
	if i != last {
		d.entries[i] = d.entries[last]
		d.index[d.entries[i].ID] = i
	}
	d.entries = d.entries[:last]
	delete(d.index, id)
	return true
}

// Len returns the number of registered peers.
func (d *Directory[ID]) Len() int { return len(d.entries) }

// Contains reports whether the peer is registered.
func (d *Directory[ID]) Contains(id ID) bool {
	_, ok := d.index[id]
	return ok
}

// Sample returns min(m, Len) distinct peers chosen uniformly at random
// using Floyd's algorithm (O(m) draws regardless of directory size). The
// caller's random source keeps runs deterministic.
func (d *Directory[ID]) Sample(m int, rng *rand.Rand) []Entry[ID] {
	return d.SampleInto(nil, m, rng)
}

// SampleInto is Sample writing into dst's backing array (dst[:0] is
// overwritten and grown only if too small): a caller that keeps the buffer
// samples without allocating. An empty sample returns dst[:0].
func (d *Directory[ID]) SampleInto(dst []Entry[ID], m int, rng *rand.Rand) []Entry[ID] {
	dst = dst[:0]
	n := len(d.entries)
	if m <= 0 || n == 0 {
		return dst
	}
	if m >= n {
		return append(dst, d.entries...)
	}
	if cap(dst) < m {
		dst = make([]Entry[ID], 0, m)
	}
	for i := n - m; i < n; i++ {
		j := rng.Intn(i + 1)
		// IDs are unique in the directory, so "slot j already picked" is
		// "its entry is among the picks": a scan over at most m entries,
		// where a set would be a map allocated per call.
		for _, e := range dst {
			if e.ID == d.entries[j].ID {
				j = i
				break
			}
		}
		dst = append(dst, d.entries[j])
	}
	return dst
}
