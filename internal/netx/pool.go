package netx

import (
	"sync"
	"time"

	"p2pstream/internal/splitmix"
)

// maxPooledChunk caps the payload capacity a chunk may carry back into the
// pool, so one huge write cannot pin a large buffer forever.
const maxPooledChunk = 64 << 10

// chunk is one scheduled delivery: a pooled copy of the written bytes (or
// the end-of-stream mark) plus the virtual instant it becomes readable.
// Chunks form singly-linked pending (in flight) and ready (readable) lists
// on the receiving inbox and are recycled as soon as they are consumed, so
// steady-state chunk traffic performs no allocations at all.
type chunk struct {
	data []byte
	eof  bool
	at   time.Time
	next *chunk
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk takes the single pooled copy of p made on the write path; the
// caller keeps ownership of p.
func newChunk(p []byte, eof bool) *chunk {
	ch := chunkPool.Get().(*chunk)
	ch.data = append(ch.data[:0], p...)
	ch.eof = eof
	ch.next = nil
	return ch
}

// recycle returns the chunk (and its buffer, if modest) to the pool.
func (ch *chunk) recycle() {
	if cap(ch.data) > maxPooledChunk {
		ch.data = nil
	} else {
		ch.data = ch.data[:0]
	}
	ch.eof = false
	ch.at = time.Time{}
	ch.next = nil
	chunkPool.Put(ch)
}

// recycleChain releases a whole list — used when an inbox dies, so peak
// in-flight bursts are not pinned by idle or failed connections.
func recycleChain(ch *chunk) {
	for ch != nil {
		next := ch.next
		ch.recycle()
		ch = next
	}
}

// seedRNG derives an independent stream from the network seed and a salt
// (shard index, connection port) by running one splitmix64 scramble.
func seedRNG(seed int64, salt uint64) splitmix.Rand {
	r := splitmix.Rand(uint64(seed) ^ (salt * 0x9e3779b97f4a7c15))
	r.Uint64()
	return r
}

// sampleDelay draws one delivery delay from the link: latency, jitter, and —
// per lost transmission — one retransmission round. Jitter- and loss-free
// links (the common case at scale) draw no randomness at all.
func sampleDelay(link LinkConfig, r *splitmix.Rand) time.Duration {
	d := link.Latency
	if link.Jitter > 0 {
		d += time.Duration(r.Int63n(int64(link.Jitter)))
	}
	if link.Loss > 0 {
		rto := 2 * link.Latency
		if rto <= 0 {
			rto = time.Millisecond
		}
		// Geometric retransmission count, capped so a misconfigured
		// Loss ~ 1.0 cannot spin forever.
		for tries := 0; tries < 16 && r.Float64() < link.Loss; tries++ {
			d += rto
		}
	}
	return d
}
