package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/core"
	"p2pstream/internal/errs"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/observe"
	"p2pstream/internal/protocol"
	"p2pstream/internal/splitmix"
	"p2pstream/internal/transport"
)

// ErrRejected is returned by Request when the admission attempt failed:
// the probed candidates could not supply an aggregate offer of exactly R0.
// It is the shared sentinel errs.ErrRejected; branch with errors.Is.
var ErrRejected = errs.ErrRejected

// ErrNoSuppliers is returned by Request when the candidate lookup came
// back empty. It is the shared sentinel errs.ErrNoSuppliers.
var ErrNoSuppliers = errs.ErrNoSuppliers

// SessionReport describes a completed streaming session from the
// requester's perspective.
type SessionReport struct {
	// Suppliers lists the participating supplying peers, high class first.
	Suppliers []transport.Candidate
	// TheoreticalDelay is Theorem 1's buffering delay: n·δt.
	TheoreticalDelay time.Duration
	// MeasuredDelay is the minimal buffering delay supported by the actual
	// arrival times (includes network and scheduling jitter).
	MeasuredDelay time.Duration
	// Report is the playback continuity verification at TheoreticalDelay
	// plus one segment-time of jitter allowance.
	Report media.PlaybackReport
	// Bytes is the total payload received.
	Bytes int64
	// Duration is the session length on the node's clock.
	Duration time.Duration
	// Rejections counts the rejected attempts (ErrRejected,
	// ErrNoSuppliers) before this session, set by RequestUntilAdmitted;
	// attempts lost to a transport failure are not among them.
	Rejections int
	// Downgraded counts segments that arrived below full quality — the
	// suppliers' ABR ladder stepping down under congestion.
	Downgraded int
	// MaxQuality is the deepest bitrate class any segment arrived at
	// (0 = the whole file arrived at full quality).
	MaxQuality media.Quality
	// Store is the store the session filled, complete. It stays the
	// session's even when the node could not cache it, or evicted it since.
	Store *media.Store
}

// Request performs one admission attempt for one media object (paper
// Section 4.2): look up M candidates supplying it and drive the shared
// protocol.Attempt sweep over the wire — probing high class first until
// permissions reach exactly R0 — then run the OTS_p2p session. On
// rejection it leaves reminders on the busy favoring candidates the sweep
// selected and returns ErrRejected. object "" requests the primary (the
// single File, or the first catalog entry); a completed object joins the
// node's library, evicting the least-recently-used idle object if the
// budget overflows, and the node registers as its supplier.
//
// ctx cancels or deadlines the whole attempt: the candidate lookup, every
// probe dial, the session streams and the post-session registration. A
// cancellation between admission and session start aborts before any
// supplier is triggered, so no supplier slot is claimed; mid-session it
// closes the streams, which the suppliers observe as a requester hangup
// and release their slots. The attempt then returns ctx.Err().
func (n *Node) Request(ctx context.Context, object string) (*SessionReport, error) {
	return n.request(ctx, object, new(sweep))
}

// sweep is the scratch of one admission attempt; RequestUntilAdmitted keeps
// one across its retries, so a retry sweeps in the buffers of the last.
type sweep struct {
	att     protocol.Attempt
	classes []bandwidth.Class
	// lines holds, by candidate index, the probe connection of every grant
	// in att.Chosen() — the supplier's Start goes out on it — and nothing
	// else: no denial's line, none at all once admission is out of reach.
	lines []net.Conn
}

// release hangs up every held line; the suppliers parked on them see EOF.
func (sw *sweep) release() {
	for i, line := range sw.lines {
		if line != nil {
			line.Close()
			sw.lines[i] = nil
		}
	}
}

func (n *Node) request(ctx context.Context, object string, sw *sweep) (*SessionReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name, file, err := n.requestable(object)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.requests++
	closed := n.closed
	store := n.pending[name]
	n.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("node %s: %w", n.cfg.ID, errs.ErrClosed)
	}
	if store == nil {
		store, err = media.NewStore(file)
		if err != nil {
			return nil, err
		}
		n.mu.Lock()
		// A failed earlier attempt keeps its partial store; reuse it so
		// retries resume instead of restarting (segments are idempotent).
		if prev := n.pending[name]; prev != nil {
			store = prev
		} else {
			n.pending[name] = store
		}
		n.mu.Unlock()
	}
	cands, err := n.disc.Candidates(ctx, name, n.cfg.M, n.cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("node %s: lookup: %w", n.cfg.ID, err)
	}
	// A candidate's class is whatever the answering registry or chord peer
	// put on the wire. One outside [1, K] offers no bandwidth the sweep can
	// weigh, so it is dropped here, before anything reads its offer.
	cands = slices.DeleteFunc(cands, func(c transport.Candidate) bool { return !c.Class.Valid(n.cfg.NumClasses) })
	if len(cands) == 0 {
		observe.Emit(n.cfg.Observer, observe.Event{
			Component: n.comp, Type: observe.LookupMiss, Object: name,
		})
		return nil, fmt.Errorf("node %s: %w", n.cfg.ID, ErrNoSuppliers)
	}
	sw.classes = sw.classes[:0]
	for _, c := range cands {
		sw.classes = append(sw.classes, c.Class)
	}
	sw.lines = slices.Grow(sw.lines[:0], len(cands))[:len(cands)]
	att := &sw.att
	att.Reset(sw.classes)
	// The one place held lines are let go on the way out: rejection, an
	// error, a cancellation.
	defer sw.release()
	for {
		idx, ok := att.Next()
		if !ok {
			break
		}
		reply, line, err := n.probe(ctx, cands[idx], name)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr // cancelled mid-probe
			}
			// Unreachable candidate: treat as down (paper: "down or busy").
			att.Down(idx)
		} else {
			held := len(att.Chosen())
			att.Record(idx, reply.Decision, reply.Favors)
			if len(att.Chosen()) > held {
				sw.lines[idx] = line
			} else {
				line.Close()
			}
		}
		if att.Doomed() {
			// The rest of the sweep only places reminders: no supplier
			// waits on a line for a Start that cannot come.
			sw.release()
		}
	}
	if !att.Admitted() {
		n.leaveReminders(ctx, cands, att.ReminderTargets(), name)
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, n.rejected
	}
	if n.testHookAdmitted != nil {
		n.testHookAdmitted()
	}
	// The gap between admission and session start: a cancellation landing
	// here must not trigger any supplier — nothing has been claimed yet,
	// and nothing will be.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	report, err := n.runSession(ctx, file, store, pick(cands, att.Chosen()), sw.lines, att.Chosen())
	sw.release() // the session is over: hang up its streams
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	delete(n.pending, name)
	n.mu.Unlock()
	if err := n.lib.Add(file, store); err != nil {
		// The session itself succeeded — the caller has the verified file
		// — but the node cannot cache it (every resident object is pinned
		// by a live session right now), so it does not become a supplier.
		return report, fmt.Errorf("node %s: caching %s: %w", n.cfg.ID, name, err)
	}
	if err := n.becomeSupplier(ctx, name); err != nil {
		return report, fmt.Errorf("node %s: promoting to supplier: %w", n.cfg.ID, err)
	}
	return report, nil
}

// requestable resolves a requested object to its catalog name and file, or
// says why the node cannot request it: the object is unknown, or the node
// already holds it. The API's empty name is the primary object; it is
// resolved here and never reaches the wire.
func (n *Node) requestable(object string) (string, *media.File, error) {
	if object == "" {
		object = n.primary
	}
	f := n.files[object]
	if f == nil {
		return object, nil, fmt.Errorf("node %s: unknown object %q", n.cfg.ID, object)
	}
	if _, _, ok := n.lib.Get(object); ok {
		return object, nil, fmt.Errorf("node %s: already holds %s", n.cfg.ID, object)
	}
	return object, f, nil
}

// pick maps candidate indices back to candidates, preserving order.
func pick(cands []transport.Candidate, idxs []int) []transport.Candidate {
	out := make([]transport.Candidate, len(idxs))
	for i, idx := range idxs {
		out[i] = cands[idx]
	}
	return out
}

// RequestUntilAdmitted is the requester's retry loop (paper Section 4.2):
// it runs Request for one object until a session is served, and gives up
// after maxAttempts attempts (the error then wraps the last attempt's). Every
// retry is a fresh admission — lookup, probes, trigger — and resumes the
// partial store of the attempts before it.
//
//   - The i-th rejection (ErrRejected, ErrNoSuppliers) waits
//     Backoff.After(i), scaled by Backoff.Jitter with a stream seeded by
//     Config.Seed anew on every call.
//   - Any other failure — a supplier that crashed mid-session, a failed
//     lookup, a dead shard — is not counted as a rejection: it says nothing
//     about admission contention. The k-th such failure in a row waits
//     Backoff.After(k), jittered the same way, so a requester cut off from
//     discovery backs off instead of spending its budget at one T_bkf
//     apart. A rejection, an attempt the overlay answered, resets k.
//   - Cancellation (the context's error) and a closed node (ErrClosed)
//     surface at once. So does a report with an error: the session was
//     served, and only caching the object or the post-session registration
//     failed.
//   - An object the node cannot request — unknown, or already held — is
//     refused before the first attempt.
func (n *Node) RequestUntilAdmitted(ctx context.Context, object string, maxAttempts int) (*SessionReport, error) {
	if maxAttempts < 1 {
		return nil, fmt.Errorf("node %s: maxAttempts %d, want >= 1", n.cfg.ID, maxAttempts)
	}
	if _, _, err := n.requestable(object); err != nil {
		return nil, err
	}
	// One splitmix64 word, not a math/rand table: a crowd runs ten
	// thousand of these loops.
	rng := splitmix.Rand(n.cfg.Seed)
	rejections, failures := 0, 0
	sw := new(sweep)
	for attempt := 1; ; attempt++ {
		report, err := n.request(ctx, object, sw)
		if report != nil {
			// Served. err is set when caching the object or the
			// post-session registration failed (a sharded registry's owner
			// shard can be down right then; the lease re-registers when it
			// returns): the caller decides how hard that is.
			report.Rejections = rejections
			return report, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, errs.ErrClosed) {
			return nil, err
		}
		if attempt == maxAttempts {
			// err already names the node and wraps the last attempt's own
			// sentinel: an empty registry exhausts as ErrNoSuppliers.
			return nil, fmt.Errorf("%w after %d attempts", err, attempt)
		}
		var k int
		if errs.Retryable(err) {
			rejections++
			k, failures = rejections, 0
		} else {
			failures++
			k = failures
		}
		wait, err := n.cfg.Backoff.After(k)
		if err != nil {
			return nil, err
		}
		if j := n.cfg.Backoff.Jitter; j > 0 {
			scale := 1 + j*(2*rng.Float64()-1)
			wait = max(time.Duration(float64(wait)*scale), time.Microsecond)
		}
		if err := clock.SleepCtx(ctx, n.clk, wait); err != nil {
			return nil, err
		}
	}
}

// probe asks one candidate for permission to stream the named object
// and returns the answer with the connection it came on, still open: the
// caller keeps the line of a grant it chose and closes every other.
// Cancellation aborts the dial and the exchange.
func (n *Node) probe(ctx context.Context, cand transport.Candidate, object string) (transport.ProbeReply, net.Conn, error) {
	var reply transport.ProbeReply
	conn, err := netx.DialContext(ctx, n.net, cand.Addr)
	if err != nil {
		return reply, nil, err
	}
	err = transport.Exchange(ctx, conn, transport.KindProbe,
		&transport.Probe{RequesterID: n.cfg.ID, Class: n.cfg.Class, Object: object},
		transport.KindProbeReply, &reply)
	if err != nil {
		conn.Close()
		return reply, nil, transport.CtxErr(ctx, err)
	}
	return reply, conn, nil
}

// leaveReminders deposits reminders on the candidates at the indices the
// shared sweep selected (busy favoring candidates, high class first, up to
// R0). Best effort; a cancelled context stops the round.
func (n *Node) leaveReminders(ctx context.Context, cands []transport.Candidate, targets []int, object string) {
	for _, idx := range targets {
		if ctx.Err() != nil {
			return
		}
		var reply transport.ReminderReply
		_ = transport.Call(ctx, n.net, cands[idx].Addr, transport.KindReminder,
			transport.Reminder{RequesterID: n.cfg.ID, Class: n.cfg.Class, Object: object},
			transport.KindReminderOK, &reply)
	}
}

// trigger sends one chosen supplier its Start and takes the answer — on
// *line, the connection its grant was given on, when that is held: the
// supplier is parked on it waiting for exactly this frame. With no held
// line, or one that fails before the supplier answered (it restarted, its
// exchange deadline passed, it is a peer that hangs up after every reply),
// the same exchange runs once on a fresh dial, left in *line. The answer is
// read through *rd, the connection's Reader, which the session's segments
// then come out of: the supplier may send them in the StartReply's write.
// On success the connection is the session stream, guarded by ctx until
// release is called, and feedback is the plane the supplier chose for it:
// whether it reads acks. On failure *rd is closed.
func (n *Node) trigger(ctx context.Context, cand transport.Candidate, line *net.Conn, rd *transport.Reader, start *transport.Start) (release func(), feedback bool, err error) {
	held := *line != nil
	for {
		if *line == nil {
			observe.Emit(n.cfg.Observer, observe.Event{Component: n.comp, Type: observe.TriggerDial})
			if *line, err = netx.DialContext(ctx, n.net, cand.Addr); err != nil {
				return nil, false, fmt.Errorf("node %s: dialing supplier %s: %w", n.cfg.ID, cand.ID, err)
			}
		}
		release = netx.Guard(ctx, *line)
		*rd = transport.NewReader(*line)
		var reply transport.StartReply
		if err = transport.Write(*line, transport.KindStart, start); err == nil {
			err = rd.Expect(transport.KindStartReply, &reply)
		}
		if err == nil && reply.OK {
			return release, reply.Feedback, nil
		}
		release()
		rd.Close()
		switch {
		case err == nil:
			// A race took this supplier (granted, then claimed by another
			// requester before our trigger). Abort: closing the other
			// connections cancels their sessions.
			return nil, false, fmt.Errorf("node %s: supplier %s refused: %s: %w", n.cfg.ID, cand.ID, reply.Reason, ErrRejected)
		case !held || ctx.Err() != nil:
			return nil, false, err
		}
		(*line).Close()
		*line, held = nil, false
	}
}

// runSession computes the OTS_p2p assignment (checking the Theorem 1
// bound), triggers every chosen supplier and receives the whole file into
// the given store concurrently, recording arrival times for playback
// verification. chosen[i]'s connection is lines[at[i]]: the held line of its
// grant, or nil, which the trigger fills with a dialed one; the caller
// closes them all. Every session connection is guarded by ctx: cancellation
// closes the streams, aborting the receivers and releasing the suppliers.
func (n *Node) runSession(ctx context.Context, file *media.File, store *media.Store, chosen []transport.Candidate, lines []net.Conn, at []int) (*SessionReport, error) {
	suppliers := make([]core.Supplier, len(chosen))
	for i, c := range chosen {
		suppliers[i] = core.Supplier{ID: c.ID, Class: c.Class}
	}
	assignment, err := protocol.AssignSession(suppliers)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}

	// Trigger phase, one supplier at a time in assignment order — which is
	// the sweep's: both sort high class first, stably, so supplier i is
	// chosen[i]. Write, then read: a refusal spares every later supplier
	// its claim. All must accept before any data is consumed.
	type stream struct {
		rd       transport.Reader // the connection's one Reader: the StartReply, then the session
		release  func()           // ends ctx's guard of the connection
		want     int              // segments the supplier was told to send
		feedback bool             // whether it reads acks: the plane it chose
	}
	streams := make([]stream, len(chosen))
	defer func() {
		for i := range streams {
			if st := &streams[i]; st.release != nil {
				st.release()
				st.rd.Close()
			}
		}
	}()
	for i, s := range assignment.Suppliers {
		if s.ID != chosen[i].ID {
			return nil, fmt.Errorf("node %s: assignment reordered the sweep: supplier %d is %s, chosen %s", n.cfg.ID, i, s.ID, chosen[i].ID)
		}
		segs := assignment.TransmissionList(i, file.Segments)
		st := &streams[i]
		release, feedback, err := n.trigger(ctx, chosen[i], &lines[at[i]], &st.rd, &transport.Start{
			RequesterID: n.cfg.ID,
			FileName:    file.Name,
			Segments:    segs,
			Priority:    n.cfg.Priority,
		})
		if err != nil {
			return nil, transport.CtxErr(ctx, err)
		}
		st.release, st.want, st.feedback = release, len(segs), feedback
	}

	// Receive phase.
	start := n.clk.Now()
	arrivals := make([]time.Duration, file.Segments)
	// rx is the state the receivers share, in one object: the closures
	// below capture it whole instead of moving each variable to the heap.
	var rx struct {
		mu         sync.Mutex // guards store, arrivals, claimed and the four below
		bytes      int64
		downgraded int
		maxQuality media.Quality
		errs       []error
		wg         sync.WaitGroup
	}
	fail := func(err error) {
		rx.mu.Lock()
		rx.errs = append(rx.errs, err)
		rx.mu.Unlock()
	}
	// claimed marks the segments a stream of this session has taken a slot
	// for, so that no two streams read into one slot.
	claimed := make([]bool, file.Segments)
	receive := func(conn net.Conn, st *stream) {
		defer rx.wg.Done()
		var (
			fresh   bool   // the last segment was read into the store, not discarded
			discard []byte // where a segment the store holds is read, made on first use
		)
		// slot picks where a segment's payload is read to, before any of
		// it is read: its slot in the store, or, idempotent under retries,
		// the discard buffer for a segment a session after a failed one
		// re-receives (content is deterministic per segment ID).
		slot := func(id, quality, size int) ([]byte, error) {
			rx.mu.Lock()
			defer rx.mu.Unlock()
			sid := media.SegmentID(id)
			fresh = !(store.Has(sid) || 0 <= id && id < len(claimed) && claimed[id])
			if fresh {
				dst, err := store.Slot(sid, media.Quality(quality), size)
				if err == nil {
					claimed[id] = true
				}
				return dst, err
			}
			if size > file.SegmentBytes {
				return nil, fmt.Errorf("node %s: segment %d has %d bytes, more than %d", n.cfg.ID, id, size, file.SegmentBytes)
			}
			if discard == nil {
				discard = make([]byte, file.SegmentBytes)
			}
			return discard[:size], nil
		}
		received, acked := 0, 0
		for {
			env, seg, err := st.rd.NextSegment(slot)
			if err != nil {
				fail(fmt.Errorf("node %s: receiving: %w", n.cfg.ID, err))
				return
			}
			switch env.Kind {
			case transport.KindSegment:
				at := n.clk.Since(start)
				q := media.Quality(seg.Quality)
				rx.mu.Lock()
				var err error
				if fresh {
					err = store.Commit(media.SegmentID(seg.ID), q, len(seg.Data))
				}
				if err == nil {
					arrivals[seg.ID] = at
					rx.bytes += int64(len(seg.Data))
					if q > 0 {
						rx.downgraded++
						rx.maxQuality = max(rx.maxQuality, q)
					}
				}
				rx.mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				received++
				if st.feedback {
					// Feedback for the supplier's bandwidth estimator: the
					// bytes stored from this stream so far. Best effort — a
					// lost ack only slows adaptation.
					acked += len(seg.Data)
					_ = transport.Write(conn, transport.KindAck,
						transport.Ack{Seq: seg.ID, Bytes: acked})
				}
			case transport.KindSessionDone:
				if received != st.want {
					fail(fmt.Errorf("node %s: supplier sent %d segments, want %d", n.cfg.ID, received, st.want))
				}
				return
			default:
				fail(fmt.Errorf("node %s: unexpected %s mid-session", n.cfg.ID, env.Kind))
				return
			}
		}
	}
	// One goroutine per stream but the last, which this one receives.
	rx.wg.Add(len(chosen))
	last := len(chosen) - 1
	for i := 0; i < last; i++ {
		go receive(lines[at[i]], &streams[i])
	}
	receive(lines[at[last]], &streams[last])
	rx.wg.Wait()
	if len(rx.errs) > 0 {
		return nil, transport.CtxErr(ctx, rx.errs[0])
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if !store.Complete() {
		return nil, fmt.Errorf("node %s: session ended with %d/%d segments", n.cfg.ID, store.Count(), file.Segments)
	}

	theoretical := protocol.TheoreticalDelay(len(chosen), file.SegmentTime)
	measured, err := media.MinimalDelay(file, arrivals)
	if err != nil {
		return nil, err
	}
	// Allow one segment-time of scheduling jitter, plus any configured
	// client-side startup buffer, when verifying.
	playback, err := media.VerifyPlayback(file, arrivals, theoretical+file.SegmentTime+n.cfg.ExtraBuffer)
	if err != nil {
		return nil, err
	}
	return &SessionReport{
		Suppliers:        chosen,
		TheoreticalDelay: theoretical,
		MeasuredDelay:    measured,
		Report:           playback,
		Bytes:            rx.bytes,
		Duration:         n.clk.Since(start),
		Downgraded:       rx.downgraded,
		MaxQuality:       rx.maxQuality,
		Store:            store,
	}, nil
}
