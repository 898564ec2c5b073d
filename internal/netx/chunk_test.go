package netx

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/pacing"
)

// connectedPair builds one connected host pair on a manually driven clock;
// both ends close with the test.
func connectedPair(tb testing.TB, clk *clock.Virtual, v *Virtual, src, dst string) (w, r net.Conn) {
	tb.Helper()
	l, err := v.Host(dst).Listen(":0")
	if err != nil {
		tb.Fatal(err)
	}
	w, err = v.Host(src).Dial(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond) // surface the acceptee
	r, err = l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

// chunkOp returns the steady-state data-path operation on one such pair:
// one 256-byte chunk written (copy + schedule) and, every 64th call, the
// whole batch delivered by one clock advance and read back (copy out) — the
// shape a paced session produces under a coalescing clock. With paced set,
// each chunk first spends budget of a data-plane pacer sized so one advance
// refills exactly one batch: the pacer never sleeps and the op stays pure
// CPU. Driving the clock from the calling goroutine (no auto-advance
// driver) keeps wall-clock quiescence waits out of the measurement.
func chunkOp(tb testing.TB, paced bool) (op func()) {
	const chunk, batch = 256, 64
	clk := clock.NewVirtual()
	v := NewVirtual(clk, 1)
	v.SetDefaultLink(LinkConfig{Latency: 300 * time.Microsecond})
	w, r := connectedPair(tb, clk, v, "req", "sup")
	pacer := pacing.New(clk, chunk*batch*1000, chunk*batch)
	payload := make([]byte, chunk)
	buf := make([]byte, chunk*batch)
	written := 0
	return func() {
		if paced {
			pacer.Pace(context.Background(), chunk)
		}
		if _, err := w.Write(payload); err != nil {
			tb.Fatal(err)
		}
		if written++; written < batch {
			return
		}
		written = 0
		clk.Advance(time.Millisecond)
		for rest := chunk * batch; rest > 0; {
			m, err := r.Read(buf)
			if err != nil {
				tb.Fatal(err)
			}
			rest -= m
		}
	}
}

func benchChunk(b *testing.B, paced bool) {
	op := chunkOp(b, paced)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkVnetChunkDelivery measures one chunk end to end through a
// virtual link.
func BenchmarkVnetChunkDelivery(b *testing.B) { benchChunk(b, false) }

// BenchmarkPacedChunkDelivery is BenchmarkVnetChunkDelivery with the
// data-plane pacer in the write path; the delta is the pacer's cost.
func BenchmarkPacedChunkDelivery(b *testing.B) { benchChunk(b, true) }

// BenchmarkVnetConcurrentHosts measures the substrate under many-host
// contention: 32 connected pairs streaming concurrently, the pattern a
// flash crowd produces. One op is one chunk through one pair; every
// advance moves one 16-chunk batch per pair, written and drained by 32
// goroutines racing for the link/conn tables and the clock.
func BenchmarkVnetConcurrentHosts(b *testing.B) {
	const pairs = 32
	const chunk = 256
	const perRound = 16

	clk := clock.NewVirtual()
	v := NewVirtual(clk, 1)
	v.SetDefaultLink(LinkConfig{Latency: 300 * time.Microsecond})
	ws := make([]net.Conn, pairs)
	rs := make([]net.Conn, pairs)
	for i := 0; i < pairs; i++ {
		ws[i], rs[i] = connectedPair(b, clk, v, fmt.Sprintf("req%d", i), fmt.Sprintf("sup%d", i))
	}

	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := perRound
		if rest := (b.N - done) / pairs; rest < n {
			n = rest
			if n == 0 {
				n = 1
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			w := ws[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < n; j++ {
					w.Write(payload)
				}
			}()
		}
		wg.Wait()
		clk.Advance(time.Millisecond)
		for i := 0; i < pairs; i++ {
			r := rs[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, chunk)
				for rest := n * chunk; rest > 0; {
					m, err := r.Read(buf)
					if err != nil {
						return
					}
					rest -= m
				}
			}()
		}
		wg.Wait()
		done += n * pairs
	}
}
