package node

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"p2pstream/internal/bwe"
	"p2pstream/internal/dac"
	"p2pstream/internal/media"
	"p2pstream/internal/observe"
	"p2pstream/internal/pacing"
	"p2pstream/internal/protocol"
	"p2pstream/internal/transport"
)

// handleConn dispatches one peer connection by its first message, which
// the endpoint's per-exchange deadline bounds: a peer that connects and
// never writes is cut off. A connection is one exchange, except that a grant
// keeps the line: after a Granted probe reply the deadline is re-armed and
// exactly one more frame is read — the requester's Start, which makes this
// connection the session stream with no second dial. EOF (the requester
// chose otherwise, was rejected or gave up) or the deadline (it went silent)
// ends the handler, and any other frame is an error and a close. Holding a
// line claims nothing: the Start takes the slot, whichever connection it
// arrives on.
func (n *Node) handleConn(conn net.Conn) {
	rd := transport.NewReader(conn)
	defer rd.Close()
	env, err := rd.Next()
	if err != nil {
		return
	}
	switch env.Kind {
	case transport.KindProbe:
		var req transport.Probe
		if err := env.Decode(&req); err != nil {
			return
		}
		if !n.handleProbe(conn, req) {
			return
		}
		n.ep.Arm(conn)
		if env, err = rd.Next(); err != nil {
			return
		}
		if env.Kind != transport.KindStart {
			n.replyUnexpected(conn, env.Kind)
			return
		}
		fallthrough
	case transport.KindStart:
		var req transport.Start
		if err := env.Decode(&req); err != nil {
			return
		}
		n.handleStart(conn, &rd, req)
	case transport.KindReminder:
		var req transport.Reminder
		if err := env.Decode(&req); err != nil {
			return
		}
		n.handleReminder(conn, req)
	default:
		n.replyUnexpected(conn, env.Kind)
	}
}

func (n *Node) replyUnexpected(conn net.Conn, kind transport.Kind) {
	n.ep.Reply(conn, transport.KindError,
		transport.Error{Message: fmt.Sprintf("node %s: unexpected %s", n.cfg.ID, kind)})
}

// handleProbe answers one admission probe and reports whether the answer
// was a grant that reached the wire — the one answer that keeps the line.
func (n *Node) handleProbe(conn net.Conn, req transport.Probe) (granted bool) {
	sup := n.supplier(req.Object)
	if sup == nil {
		n.ep.Reply(conn, transport.KindError, transport.Error{Message: "not a supplying peer"})
		return false
	}
	n.mu.Lock()
	u := n.rng.Float64()
	n.mu.Unlock()
	dec, favors := sup.HandleProbe(req.Class, u)
	observe.Emit(n.cfg.Observer, observe.Event{Component: n.comp, Type: observe.ProbeServed})
	err := n.ep.Reply(conn, transport.KindProbeReply, transport.ProbeReply{Decision: dec, Favors: favors})
	return err == nil && dec == dac.Granted
}

func (n *Node) handleReminder(conn net.Conn, req transport.Reminder) {
	kept := false
	if sup := n.supplier(req.Object); sup != nil {
		kept = sup.LeaveReminder(req.Class)
	}
	n.ep.Reply(conn, transport.KindReminderOK, transport.ReminderReply{Kept: kept})
}

// handleStart runs the supplier side of a streaming session, reading the
// connection on through rd, the Reader its Start came out of, and, when the
// session had feedback, keeps the connection until the requester hangs up.
// Closing it with acks still unread in the socket makes the kernel answer
// with a reset instead of a FIN, and a reset destroys whatever the requester
// has not read yet: the session's last segments and its SessionDone. The
// slot and the pin are already released during that wait; the re-armed
// exchange deadline and Node.Close bound it.
func (n *Node) handleStart(conn net.Conn, rd *transport.Reader, req transport.Start) {
	if acks := n.supply(conn, rd, req); acks != nil {
		n.ep.Arm(conn)
		<-acks
	}
}

// supply pins the requested object in the library (so eviction cannot
// strand the session), claims the busy state, tells the requester which
// plane the session runs on and streams the assignment; the deferred
// EndSession applies the post-session vector update. For a session with
// feedback it hands rd to the ack reader and returns the channel that reader
// closes once the requester hangs up, and nil otherwise.
func (n *Node) supply(conn net.Conn, rd *transport.Reader, req transport.Start) <-chan struct{} {
	file, store, ok := n.lib.Acquire(req.FileName)
	if !ok {
		// Not held (never was, or evicted since the requester's lookup):
		// the refusal is retryable on the requester side, which sweeps
		// again against fresh candidates.
		n.ep.Reply(conn, transport.KindStartReply, transport.StartReply{OK: false, Reason: "unknown file"})
		return nil
	}
	defer n.lib.Release(req.FileName)
	sup := n.supplier(file.Name)
	if sup == nil {
		n.ep.Reply(conn, transport.KindStartReply, transport.StartReply{OK: false, Reason: "not supplying"})
		return nil
	}
	if err := sup.StartSession(); err != nil {
		n.ep.Reply(conn, transport.KindStartReply, transport.StartReply{OK: false, Reason: "busy"})
		return nil
	}
	defer sup.EndSession()

	// The plane is the supplier's choice, made here and nowhere else; the
	// requester acks exactly when this reply says so.
	feedback := !n.cfg.NoAdapt
	out := &burst{ep: n.ep, conn: conn, eager: feedback}
	defer out.flush()
	if out.add(transport.KindStartReply, transport.StartReply{OK: true, Feedback: feedback}) != nil {
		return nil
	}
	// The connection is a session stream from here on: it lives as long as
	// the schedule says, not one exchange.
	conn.SetDeadline(time.Time{})
	var flow *pacing.Flow
	var acks chan struct{}
	if feedback {
		committed := n.committed(file)
		flow = pacing.NewFlow(n.clk, bwe.Config{
			Initial: committed,
			Max:     committed, // never estimate above what admission granted
			// One decrease per couple of segment-times: long enough for the
			// queue a cut targets to drain on scenario timescales.
			HoldTime: 2 * file.SegmentTime,
		}, file.SegmentBytes)
		acks = make(chan struct{})
		// The Reader goes to the ack reader by value, which keeps
		// handleConn's on its stack; this side's copy is emptied, so only
		// the ack reader uses and closes it.
		go n.readAcks(*rd, flow, acks)
		*rd = transport.Reader{}
	}
	n.stream(out, req, file, store, flow)
	return acks
}

// readAcks feeds the requester's acknowledgments — each the bytes it has
// stored from this stream so far — to the session's flow, and closes done
// when the requester hangs up or the connection dies. rd is the Reader the
// session's Start came out of — an ack that arrived with the Start is
// already in its buffer — and readAcks closes it.
func (n *Node) readAcks(rd transport.Reader, flow *pacing.Flow, done chan<- struct{}) {
	defer close(done)
	defer rd.Close()
	for {
		env, err := rd.Next()
		if err != nil || env.Kind != transport.KindAck {
			return
		}
		var ack transport.Ack
		if err := env.Decode(&ack); err != nil {
			return
		}
		flow.Acked(int64(ack.Bytes))
		if n.testHookAck != nil {
			n.testHookAck(ack)
		}
	}
}

// minPace is the shortest wait the schedule is kept with. A shorter one is
// beneath what a timer resolves: the sleep returns a timer slack and a
// thread wake-up later — 50 µs at best, a few hundred on an idle virtual
// machine — and puts the segment further behind its deadline than sending
// it now puts it ahead, which a receiver only buffers.
const minPace = 100 * time.Microsecond

// stream sends a session's assigned segments, the i-th released no earlier
// than its transmission deadline on the class schedule, each read from the
// store: a segment it does not hold ends the session with an error frame.
// Without feedback (flow nil) each goes out whole at the quality this node
// holds it at, and the segments no wait separates leave in one write with
// the frames around them. With feedback its bytes are paced to the
// send-side bandwidth estimate the requester's acks feed, so a session
// sharing a bottleneck converges to its fair share instead of standing on
// the queue, and the ABR ladder steps the quality down rather than stalling
// when the estimate sustains below the committed offer; a segment the store
// holds at a worse quality than the ladder's goes out as held, never better.
func (n *Node) stream(out *burst, req transport.Start, f *media.File, store *media.Store, flow *pacing.Flow) {
	var abr ladder
	if flow != nil {
		abr = newLadder(n.committed(f), f.SegmentTime, req.Priority)
	}
	start := n.clk.Now()
	sent := 0
	// One frame for the session, passed by address: a Segment by value
	// would be boxed into add's any once per segment.
	var frame transport.Segment
	var down []byte // the session's subsampled renditions, reused: Append copies
	for i, segID := range req.Segments {
		// Pace against the absolute schedule to avoid drift: transmission
		// of the i-th assigned segment completes at its protocol deadline.
		deadline := start.Add(protocol.TransmissionDeadline(i, n.cfg.Class, f.SegmentTime))
		if d := deadline.Sub(n.clk.Now()); d >= minPace {
			if out.flush() != nil {
				return // requester hung up (session aborted)
			}
			n.clk.Sleep(d)
		}
		var rate int64
		if flow != nil {
			rate = flow.Rate()
			if abr.step(n.clk.Now(), rate) {
				observe.Emit(n.cfg.Observer, observe.Event{
					Component: n.comp, Type: observe.BitrateDowngrade, Quality: int(abr.q),
				})
			}
		}
		// The store is the one source of bytes at every quality: the held
		// rendition, labelled with the quality it arrived at (a relayed
		// downgrade sent as full quality is refused by the requester's
		// store on every retry), or its subsample at the ladder's quality.
		seg, ok := store.Rendition(media.SegmentID(segID), abr.q, &down)
		if !ok {
			out.add(transport.KindError,
				transport.Error{Message: fmt.Sprintf("segment %d not held", segID)})
			return
		}
		if flow != nil {
			// Pace with 25% headroom over the estimate. At exactly the
			// estimate the sender has zero slack: one noise-induced decrease
			// (wall-clock scheduling jitter reads as queuing delay) puts it
			// behind a schedule it can never catch up to, since budget
			// accrues no faster than the rate. The gain absorbs those dips —
			// the schedule gate above still stops the sender from running
			// ahead — while genuine congestion cuts the estimate toward the
			// delivered rate, far more than 25%, so the throttle still binds.
			// The background context is never done: the wait cannot fail.
			flow.Pace(context.Background(), rate+rate/4, len(seg.Data))
		}
		frame = transport.Segment{ID: segID, Quality: int(seg.Quality), Data: seg.Data}
		if out.add(transport.KindSegment, &frame) != nil {
			return // requester hung up (session aborted)
		}
		sent++
	}
	if out.add(transport.KindSessionDone, transport.SessionDone{Sent: sent}) == nil && out.flush() == nil {
		observe.Emit(n.cfg.Observer, observe.Event{Component: n.comp, Type: observe.SessionServed})
	}
}

// maxBurst is the size at which a burst is written without waiting for the
// loop's next wait: four of a bulk session's 16 KiB segments. No write of a
// session holds more than maxBurst plus one frame.
const maxBurst = 64 << 10

// burstPool holds the buffers of bursts. A burst takes one at its first
// frame and gives it back at its write, so a session asleep on its schedule
// holds none.
var burstPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// burst is the frames of a supplied session that no wait separates — the
// StartReply, the segments already due, the SessionDone or a KindError —
// written through the endpoint in one Write when the session is about to
// wait, when they reach maxBurst bytes, and when it ends. One write is one
// syscall and one wake-up of the reader, and a failed one is counted once.
type burst struct {
	ep    *transport.Endpoint
	conn  net.Conn
	eager bool    // every frame is written on its own: the feedback plane paces each
	bp    *[]byte // the frames not yet written; nil when there are none
}

// add appends one frame to the burst and writes the burst if it is eager or
// has reached maxBurst bytes.
func (b *burst) add(kind transport.Kind, body any) error {
	if b.bp == nil {
		b.bp = burstPool.Get().(*[]byte)
	}
	var err error
	if *b.bp, err = transport.Append(*b.bp, kind, body); err != nil {
		return err
	}
	if b.eager || len(*b.bp) >= maxBurst {
		return b.flush()
	}
	return nil
}

// flush writes the pending frames, if there are any, in one Write.
func (b *burst) flush() error {
	bp := b.bp
	if bp == nil {
		return nil
	}
	b.bp = nil
	var err error
	if len(*bp) > 0 {
		err = b.ep.Send(b.conn, *bp)
	}
	if cap(*bp) <= 2*maxBurst {
		*bp = (*bp)[:0]
		burstPool.Put(bp)
	}
	return err
}

// committed is the out-bound rate admission granted a session of f: this
// node's R0/2^c offer, in bytes per second.
func (n *Node) committed(f *media.File) int64 {
	return max(1, int64(f.PlaybackRateBps()/float64(int64(1)<<n.cfg.Class)))
}

// downgradeMargin is the fraction of the current quality target the
// bandwidth estimate must stay under before the sustain clock starts: a
// few percent of estimator noise below target never triggers a downgrade.
const downgradeMargin = 0.9

// ladder is a feedback session's ABR state: the quality it sends at, each
// step down the bitrate-class ladder halving segment bytes, and since when
// the estimate has been below that quality's target.
type ladder struct {
	committed int64         // the R0/2^c offer, bytes per second: quality 0's target
	sustain   time.Duration // how long the estimate may stay below target before a step
	q         media.Quality
	below     time.Time // when the estimate went below target; zero while it is not
}

// newLadder starts a session's ladder at full quality. The requester's
// Start.Priority, clamped to [0, 4], doubles the sustain window per step,
// so best-effort flows yield first.
func newLadder(committed int64, dt time.Duration, priority int) ladder {
	return ladder{committed: committed, sustain: 2 * dt << min(max(priority, 0), 4)}
}

// step weighs the estimate at now and reports whether the session stepped
// one class down: it does once the estimate has sustained below the margin
// of the current quality's target.
func (l *ladder) step(now time.Time, rate int64) bool {
	if l.q >= media.MaxQuality || rate >= int64(downgradeMargin*float64(l.committed>>uint(l.q))) {
		l.below = time.Time{}
		return false
	}
	if l.below.IsZero() {
		l.below = now
	}
	if now.Sub(l.below) < l.sustain {
		return false
	}
	l.q++
	l.below = time.Time{}
	return true
}
