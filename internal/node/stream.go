package node

import (
	"net"
	"sync"
	"time"

	"p2pstream/internal/bwe"
	"p2pstream/internal/media"
	"p2pstream/internal/observe"
	"p2pstream/internal/pacing"
	"p2pstream/internal/protocol"
	"p2pstream/internal/transport"
)

// downgradeMargin is the fraction of the current quality target the
// bandwidth estimate must stay under before the sustain clock starts: a
// few percent of estimator noise below target never triggers a downgrade.
const downgradeMargin = 0.9

// codec returns the configured rendition codec (PerfectCodec by default).
func (n *Node) codec() media.Codec {
	if n.cfg.Codec != nil {
		return n.cfg.Codec
	}
	return media.PerfectCodec{}
}

// streamAdaptive is the congestion-aware data plane. The supplier still
// follows the protocol's class schedule — segment i is released no earlier
// than its transmission deadline — but the bytes themselves are paced to a
// send-side bandwidth estimate fed by the requester's acknowledgments, so
// a session sharing a bottleneck converges to its fair share instead of
// standing on the queue. When the estimate sustains below the committed
// R0/2^c offer at the current quality, the session steps one class down
// the bitrate ladder (halving segment bytes) rather than stalling; the
// requester's Start.Priority doubles the sustain window per step, so
// best-effort flows yield first.
func (n *Node) streamAdaptive(conn net.Conn, req transport.Start, f *media.File, store *media.Store) {
	committed := int64(f.PlaybackRateBps() / float64(int64(1)<<n.cfg.Class))
	if committed < 1 {
		committed = 1
	}
	dt := f.SegmentTime

	var mu sync.Mutex // guards est and sentAt (sender loop vs ack reader)
	est := bwe.New(bwe.Config{
		Initial: committed,
		Max:     committed, // never estimate above what admission granted
		// One decrease per couple of segment-times: long enough for the
		// queue a cut targets to drain on scenario timescales.
		HoldTime: 2 * dt,
	})
	sentAt := make(map[int]time.Time, 4)

	// Feedback reader: the requester acknowledges every stored segment;
	// each ack closes one RTT sample into the estimator. The goroutine
	// exits when the connection dies — at session end the endpoint
	// closes conn right after this handler returns.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			env, err := transport.Read(conn)
			if err != nil || env.Kind != transport.KindAck {
				return
			}
			var ack transport.Ack
			if err := env.Decode(&ack); err != nil {
				return
			}
			now := n.clk.Now()
			mu.Lock()
			if at, ok := sentAt[ack.Seq]; ok {
				delete(sentAt, ack.Seq)
				est.OnAck(now, ack.Bytes, now.Sub(at))
			}
			mu.Unlock()
		}
	}()

	pacer := pacing.New(n.clk, committed, f.SegmentBytes)
	codec := n.codec()
	sustain := 2 * dt
	for s := 0; s < req.Priority && s < 4; s++ {
		sustain *= 2
	}

	start := n.clk.Now()
	q := media.Quality(0)
	target := committed
	var belowSince time.Time
	sent := 0
	var frame transport.Segment // one per session, passed by address: see streamFixed
	for i, segID := range req.Segments {
		deadline := start.Add(protocol.TransmissionDeadline(i, n.cfg.Class, dt))
		if d := deadline.Sub(n.clk.Now()); d > 0 {
			n.clk.Sleep(d)
		}
		mu.Lock()
		rate := est.Rate()
		mu.Unlock()
		now := n.clk.Now()
		if q < media.MaxQuality && rate < int64(downgradeMargin*float64(target)) {
			if belowSince.IsZero() {
				belowSince = now
			}
			if now.Sub(belowSince) >= sustain {
				q++
				target = committed >> uint(q)
				belowSince = time.Time{}
				observe.Emit(n.cfg.Observer, observe.Event{
					Component: n.comp, Type: observe.BitrateDowngrade, Quality: int(q),
				})
			}
		} else {
			belowSince = time.Time{}
		}

		var seg media.Segment
		if q == 0 {
			// The stored rendition, labelled with the quality it arrived at:
			// a relayed downgrade sent as full quality is refused by the
			// requester's store on every retry.
			var ok bool
			if seg, ok = store.Get(media.SegmentID(segID)); !ok {
				n.ep.Reply(conn, transport.KindError,
					transport.Error{Message: "segment not held"})
				return
			}
		} else {
			seg = codec.EncodeAt(f, media.SegmentID(segID), q)
		}
		// Pace with 25% headroom over the estimate. At exactly the estimate
		// the sender has zero slack: one noise-induced decrease (wall-clock
		// scheduling jitter reads as queuing delay) puts it behind a
		// schedule it can never catch up to, since budget accrues no faster
		// than the rate. The gain absorbs those dips — the schedule gate
		// above still stops the sender from running ahead — while genuine
		// congestion cuts the estimate toward the delivered rate, far more
		// than 25%, so the throttle still binds.
		pacer.SetRate(rate + rate/4)
		pacer.Pace(len(seg.Data))
		mu.Lock()
		sentAt[segID] = n.clk.Now()
		mu.Unlock()
		frame = transport.Segment{ID: segID, Quality: int(seg.Quality), Data: seg.Data}
		if err := n.ep.Reply(conn, transport.KindSegment, &frame); err != nil {
			return // requester hung up (session aborted)
		}
		sent++
	}
	observe.Emit(n.cfg.Observer, observe.Event{Component: n.comp, Type: observe.SessionServed})
	n.ep.Reply(conn, transport.KindSessionDone, transport.SessionDone{Sent: sent})
}
