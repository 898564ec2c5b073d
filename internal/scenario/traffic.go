package scenario

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/bwe"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/pacing"
)

// The cross-traffic generator: each TrafficFlow is a greedy TCP-like
// sender — it paces to a delay-based bandwidth estimate with no committed
// ceiling, ramping until the bottleneck queue inflates its RTT and the
// estimator cuts back. The sink acknowledges every read with its
// cumulative byte count, which is both the flow's RTT probe and its
// delivery confirmation. Media sessions sharing the bottleneck therefore
// compete with an elastic load, not a blind firehose — the "media vs TCP"
// half of the congestion catalog.

// trafficState is one flow's running state and result accumulator.
type trafficState struct {
	flow  TrafficFlow
	bytes atomic.Int64 // payload bytes written so far
	acked atomic.Int64 // payload bytes the sink confirmed
}

// result snapshots the flow's outcome.
func (t *trafficState) result(elapsed time.Duration) TrafficResult {
	res := TrafficResult{
		From:  t.flow.From,
		To:    t.flow.To,
		Bytes: t.bytes.Load(),
		Acked: t.acked.Load(),
	}
	if d := elapsed - t.flow.Start; d > 0 && res.Acked > 0 {
		res.Rate = float64(res.Acked) / d.Seconds()
	}
	return res
}

// startTraffic is the traffic step: it boots one sink listener per
// distinct sink host, schedules every flow at its start instant (relative
// to the run's time zero — Run calls this right after anchoring it), and
// returns the flow states plus an idempotent stop function that cancels
// the flows and waits for them. Flows die with the workload: Run stops
// them while the clock still runs, and the teardown stops them otherwise
// and then closes the sinks.
func (h *harness) startTraffic() ([]*trafficState, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sinks := map[string]string{} // sink host -> listen address
	for _, tf := range h.spec.Traffic {
		if _, ok := sinks[tf.To]; ok {
			continue
		}
		l, err := h.net.Host(tf.To).Listen(":0")
		if err != nil {
			continue // the flow will record zero bytes; invariants surface it
		}
		h.onClose(func() { l.Close() })
		sinks[tf.To] = l.Addr().String()
		go sinkLoop(l)
	}
	states := make([]*trafficState, len(h.spec.Traffic))
	var wg sync.WaitGroup
	for i, tf := range h.spec.Traffic {
		st := &trafficState{flow: tf}
		states[i] = st
		addr, ok := sinks[tf.To]
		if !ok {
			continue
		}
		wg.Add(1)
		h.clk.AfterFunc(tf.Start, func() {
			// Never block the clock's advancing goroutine.
			go func() {
				defer wg.Done()
				h.runFlow(ctx, st, addr)
			}()
		})
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	h.onClose(stop)
	return states, stop
}

// sinkLoop accepts sink connections until the listener closes. Each
// connection's reader acknowledges every read with the cumulative byte
// count received — 8 bytes upstream per chunk, the flow's feedback channel.
func sinkLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			buf := make([]byte, 32<<10)
			var ack [8]byte
			var total uint64
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					total += uint64(n)
					binary.BigEndian.PutUint64(ack[:], total)
					if _, werr := conn.Write(ack[:]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// runFlow drives one greedy flow until its duration elapses, the context
// cancels, or the connection dies.
func (h *harness) runFlow(ctx context.Context, st *trafficState, addr string) {
	conn, err := h.net.Host(st.flow.From).Dial(addr)
	if err != nil {
		return
	}
	defer conn.Close()

	flow := pacing.NewFlow(h.clk, bwe.Config{Initial: st.flow.Rate}, st.flow.Chunk) // Max 0: greedy, no committed ceiling

	// Ack reader: each cumulative count from the sink closes RTT samples
	// for every chunk it covers and credits the delivered bytes.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var ack [8]byte
		for {
			if _, err := io.ReadFull(conn, ack[:]); err != nil {
				return
			}
			total := int64(binary.BigEndian.Uint64(ack[:]))
			flow.Acked(total)
			st.acked.Store(total)
		}
	}()

	buf := make([]byte, st.flow.Chunk)
	var end time.Time
	if st.flow.Duration > 0 {
		end = h.clk.Now().Add(st.flow.Duration)
	}
	for ctx.Err() == nil {
		if !end.IsZero() && !h.clk.Now().Before(end) {
			break
		}
		if err := flow.Pace(ctx, flow.Rate(), len(buf)); err != nil {
			break
		}
		if _, err := conn.Write(buf); err != nil {
			break
		}
		st.bytes.Add(int64(len(buf)))
	}
	conn.Close() // unblocks the ack reader
	<-readerDone
}

// The congestion-control flow family. All three scenarios route the
// seeds' access links into one shared bandwidth-limited "core" resource
// (netx.LinkConfig.Bottleneck), so every concurrent session serializes
// into the same pipe. They stream congestionFile — 1 KiB segments, which
// the wire's framing inflates by 1%, so a flow's wire rate is its payload
// rate. One full-quality flow is flowWire on the wire; one downgrade
// roughly halves that, the next again. A sender paces at 1.25x its
// estimate, so while it transmits a full-quality flow takes 1.25 flowWire.
// A supplying peer serves one session at a time, so each class-1 requester
// binds two exclusive class-1 suppliers — concurrent flows need four
// seeds. The second requester starts 3 ms after the first so their
// admission sweeps don't race for the same two grants (and their
// transmission schedules de-phase at the bottleneck).

// congestionFile returns the flow family's media item: 1 KiB segments,
// 8 ms each → R0 = 128 KB/s payload. The longer δt both doubles the
// playback allowance (Theorem 1 buffering scales with δt) and halves the
// wire rate, which is what lets a transient bottleneck queue drain before
// it eats the whole allowance.
func congestionFile() *media.File {
	return &media.File{Name: "stream", Segments: 16, SegmentBytes: 1024, SegmentTime: 8 * time.Millisecond}
}

// flowWire is the wire rate of one full-quality congestionFile flow, in
// bytes per second: every δt one segment frame (the 1 KiB payload under 10
// bytes of length, version, kind and fields) and the 9-byte ack that
// answers it — 130,375 B/s. The family's bottlenecks are multiples of it.
const flowWire = (1024 + 10 + 9) * int64(time.Second/(8*time.Millisecond))

// coreBottleneck is a bandwidth-limited access link serializing into the
// shared "core" resource. No jitter: the ABR assertions want the RTT
// signal to carry queueing, not noise.
func coreBottleneck(bps int64) netx.LinkConfig {
	return netx.LinkConfig{Latency: 300 * time.Microsecond, Bandwidth: bps, Bottleneck: "core"}
}

// competingMediaFlows starts two near-simultaneous media flows behind one
// bottleneck of 1.6 flowWire, which fits ~1.3 full-quality flows at their
// paced rate: together they oversubscribe the pipe, both must step down
// the bitrate ladder (two half-rate flows need 1.0 flowWire), and
// they converge to comparable shares — with playback continuous
// throughout. The detail test re-runs the spec with NoAdapt as the
// unpaced control and asserts the congestion the adaptation avoided.
func competingMediaFlows() Spec {
	return Spec{
		Name:     "competing-media-flows",
		Stresses: "two paced media flows sharing one bottleneck: both downgrade to a fair share and play continuously",
		Objects:  []*media.File{congestionFile()},
		Buffer:   24 * time.Millisecond, // 3·δt startup buffer absorbs the pre-downgrade queue transient
		Seeds: []Peer{
			{ID: "s1", Class: 1}, {ID: "s2", Class: 1},
			{ID: "s3", Class: 1}, {ID: "s4", Class: 1},
		},
		Requesters: []Peer{
			{ID: "r1", Class: 1, Start: 0},
			{ID: "r2", Class: 1, Start: 3 * time.Millisecond},
		},
		Links: []Link{
			{A: "s1", B: Wildcard, Config: coreBottleneck(flowWire * 16 / 10)},
			{A: "s2", B: Wildcard, Config: coreBottleneck(flowWire * 16 / 10)},
			{A: "s3", B: Wildcard, Config: coreBottleneck(flowWire * 16 / 10)},
			{A: "s4", B: Wildcard, Config: coreBottleneck(flowWire * 16 / 10)},
		},
		Expect: Expect{FairShare: 1.5, MinDowngraded: 1},
	}
}

// mediaVsTCPFlows runs one media flow against a greedy elastic cross-flow
// (the TCP stand-in: delay-based AIMD with no committed ceiling) through
// a bottleneck of 1.65 flowWire that cannot carry the full-quality flow
// alongside it (the cross-flow alone offers 1.0 flowWire). The media
// session must finish with continuous playback — downgrading is how
// it holds its share — and the cross-flow must still move bytes: neither
// starves the other.
func mediaVsTCPFlows() Spec {
	return Spec{
		Name:     "media-vs-tcp-flows",
		Stresses: "a media flow sharing a bottleneck with a greedy long flow: ABR defends continuity without starving the elastic traffic",
		Objects:  []*media.File{congestionFile()},
		Buffer:   24 * time.Millisecond,
		Seeds:    []Peer{{ID: "s1", Class: 1}, {ID: "s2", Class: 1}},
		Requesters: []Peer{
			{ID: "r1", Class: 1, Start: 0},
		},
		Links: []Link{
			{A: "s1", B: Wildcard, Config: coreBottleneck(flowWire * 165 / 100)},
			{A: "s2", B: Wildcard, Config: coreBottleneck(flowWire * 165 / 100)},
			{A: "tcp-src", B: "tcp-sink", Config: coreBottleneck(flowWire * 165 / 100)},
		},
		Traffic: []TrafficFlow{
			{From: "tcp-src", To: "tcp-sink", Start: 0, Chunk: 1024, Rate: 128 << 10},
		},
		Expect: Expect{MinDowngraded: 1},
	}
}

// priorityFlows shares the bottleneck between a priority-3 flow and a
// best-effort one. The priority steps multiply the supplier-side sustain
// window before a downgrade (2·δt base, doubled per step → 64ms for hi,
// the whole session), so the best-effort flow steps down first and frees
// the capacity that keeps the priority flow at full quality: the
// bottleneck of 1.7 flowWire holds one full-quality and one half-rate flow
// (1.5 flowWire) but not two full-quality ones.
func priorityFlows() Spec {
	return Spec{
		Name:     "priority-flows",
		Stresses: "a priority flow and a best-effort flow on one bottleneck: the best-effort flow yields (downgrades) and the priority flow keeps full quality",
		Objects:  []*media.File{congestionFile()},
		Buffer:   40 * time.Millisecond, // 5·δt: the priority flow never yields, so it rides the deepest queue on buffer alone
		Seeds: []Peer{
			{ID: "s1", Class: 1}, {ID: "s2", Class: 1},
			{ID: "s3", Class: 1}, {ID: "s4", Class: 1},
		},
		Requesters: []Peer{
			{ID: "hi", Class: 1, Start: 0, Priority: 3},
			{ID: "lo", Class: 1, Start: 3 * time.Millisecond},
		},
		Links: []Link{
			{A: "s1", B: Wildcard, Config: coreBottleneck(flowWire * 17 / 10)},
			{A: "s2", B: Wildcard, Config: coreBottleneck(flowWire * 17 / 10)},
			{A: "s3", B: Wildcard, Config: coreBottleneck(flowWire * 17 / 10)},
			{A: "s4", B: Wildcard, Config: coreBottleneck(flowWire * 17 / 10)},
		},
		Expect: Expect{MinDowngraded: 1, FullQuality: []string{"hi"}},
	}
}
