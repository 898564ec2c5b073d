package directory

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"p2pstream/internal/chord"
)

// ShardPoints is the number of virtual points each shard owns on the
// identifier circle. A single point per shard makes arc lengths — and so
// key load — wildly uneven for small shard counts; spreading each shard
// over many points flattens the spread (the classic consistent-hashing
// virtual-node trick).
const ShardPoints = 16

// ShardRing deterministically maps supplier keys to registry shards by
// consistent hashing on the chord identifier circle. Every client builds
// the same ring from the same shard names, so routing needs no
// coordination service; the epoch number versions the shard set across
// live resharding. The zero value is unusable; use NewShardRing or
// NewShardRingOf.
type ShardRing struct {
	epoch  int64
	names  []string
	points []shardPoint // sorted by ring position
}

type shardPoint struct {
	pos   uint64
	shard int
}

// ShardName is the canonical ring name of shard i: "shard-<i>". A
// deployment's bootstrap shards and the shards it spawns later share the
// spelling, so clients routing by DefaultShardNames agree with it.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// DefaultShardNames returns the canonical shard names of a fixed n-shard
// deployment: ShardName(0) .. ShardName(n-1).
func DefaultShardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = ShardName(i)
	}
	return names
}

// NewShardRing returns the canonical epoch-0 ring over n shards
// (numbered 0..n-1).
func NewShardRing(n int) (*ShardRing, error) {
	if n < 1 {
		return nil, fmt.Errorf("directory: shard ring needs >= 1 shard, got %d", n)
	}
	return NewShardRingOf(0, DefaultShardNames(n))
}

// NewShardRingOf builds the ring of one resharding epoch over an explicit
// named shard set. Arc placement hashes names (not addresses or indices),
// so a shard keeps its arcs when its address changes and removing one
// shard leaves every other shard's points exactly where they were. Every
// shard of every epoch owns ShardPoints virtual points, so rings across an
// epoch flip stay comparable.
func NewShardRingOf(epoch int64, names []string) (*ShardRing, error) {
	if epoch < 0 {
		return nil, fmt.Errorf("directory: shard ring epoch must be >= 0, got %d", epoch)
	}
	if len(names) < 1 {
		return nil, errors.New("directory: shard ring needs >= 1 shard name")
	}
	r := &ShardRing{
		epoch:  epoch,
		names:  append([]string(nil), names...),
		points: make([]shardPoint, 0, len(names)*ShardPoints),
	}
	seen := make(map[uint64]bool, len(names)*ShardPoints)
	byName := make(map[string]bool, len(names))
	var key []byte // "name/rep", the point's key
	for shard, name := range names {
		if name == "" {
			return nil, fmt.Errorf("directory: shard %d has an empty name", shard)
		}
		if byName[name] {
			return nil, fmt.Errorf("directory: duplicate shard name %q", name)
		}
		byName[name] = true
		for rep := 0; rep < ShardPoints; rep++ {
			key = strconv.AppendInt(append(append(key[:0], name...), '/'), int64(rep), 10)
			pos := chord.HashBytes(key)
			if seen[pos] {
				continue // astronomically unlikely; first point keeps the arc
			}
			seen[pos] = true
			r.points = append(r.points, shardPoint{pos: pos, shard: shard})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
	return r, nil
}

// Epoch returns the resharding epoch this ring is valid for.
func (r *ShardRing) Epoch() int64 { return r.epoch }

// Shards returns the number of shards.
func (r *ShardRing) Shards() int { return len(r.names) }

// Names returns the shard names, in shard order.
func (r *ShardRing) Names() []string { return append([]string(nil), r.names...) }

// Owner returns the shard that owns key: the shard of the first ring point
// at or clockwise past chord.HashKey(key), exactly the successor rule of
// the chord substrate.
func (r *ShardRing) Owner(key string) int {
	h := chord.HashKey(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if idx == len(r.points) {
		idx = 0 // wrapped: the smallest point owns the top arc
	}
	return r.points[idx].shard
}

// Owns reports whether the ring point at index i owns identifier h — the
// chord.InHalfOpen(h, predecessor, point] ownership test. It exists for
// tests and diagnostics; Owner is the routing entry point.
func (r *ShardRing) Owns(i int, h uint64) bool {
	prev := r.points[(i-1+len(r.points))%len(r.points)].pos
	return chord.InHalfOpen(h, prev, r.points[i].pos)
}
