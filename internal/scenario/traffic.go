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

// startTraffic boots one sink listener per distinct sink host, schedules
// every flow at its start instant (relative to the run's time zero — Run
// calls this right after anchoring it), and returns the flow states plus
// an idempotent stop function that cancels the flows and closes the sinks.
func (h *harness) startTraffic() ([]*trafficState, func()) {
	if len(h.spec.Traffic) == 0 {
		return nil, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var closers []io.Closer
	sinks := map[string]string{} // sink host -> listen address
	for _, tf := range h.spec.Traffic {
		if _, ok := sinks[tf.To]; ok {
			continue
		}
		l, err := h.net.Host(tf.To).Listen(":0")
		if err != nil {
			continue // the flow will record zero bytes; invariants surface it
		}
		closers = append(closers, l)
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
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			wg.Wait()
			for _, c := range closers {
				c.Close()
			}
		})
	}
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
