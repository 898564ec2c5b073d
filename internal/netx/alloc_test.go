//go:build !race

package netx

import (
	"testing"
	"time"

	"p2pstream/internal/clock"
)

// TestChunkDeliveryAllocs pins the vnet data path (chunkOp) at zero
// allocations per chunk in steady state, bare and paced. The handful of
// timer allocations each clock advance costs amortizes below one per chunk
// (AllocsPerRun, like go test's allocs/op, reports whole allocations per
// op), so any allocation on the per-chunk path itself fails. Not built
// under -race, where sync.Pool drops puts at random.
func TestChunkDeliveryAllocs(t *testing.T) {
	for name, paced := range map[string]bool{"vnet": false, "paced": true} {
		t.Run(name, func(t *testing.T) {
			op := chunkOp(t, paced)
			for i := 0; i < 512; i++ {
				op() // fill the chunk pools
			}
			if got := testing.AllocsPerRun(6400, op); got != 0 {
				t.Errorf("%.0f allocs per chunk, want 0", got)
			}
		})
	}
}

// TestListenerQueueEnqueueAllocs: once the accept queue has grown to its
// burst size, surfacing a connection allocates nothing — the queue rewinds
// when drained instead of shedding capacity from the front (which made
// append reallocate again and again: 1 alloc per enqueue before).
func TestListenerQueueEnqueueAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	v := NewVirtual(clk, 1)
	nl, err := v.Host("b").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	dialBurst(t, clk, v, nl, 64, nil)
	l := nl.(*vListener)
	c := &newConnPair(v, vAddr{host: "a", port: 1}, l).b
	if got := testing.AllocsPerRun(1000, func() {
		l.enqueue(c)
		l.enqueue(c)
		l.Accept()
		l.Accept()
	}); got != 0 {
		t.Errorf("%.0f allocs per two enqueue + accept rounds on a warm queue, want 0", got)
	}
}

// dialRoundTripAllocs is what one virtual dial costs from Dial to both ends
// closed, with one request and one reply in between: the connPair — both
// conns, both inboxes, the SYN and both flush alarms are one object — and
// nothing per timer arm. The parent of the change that introduced
// clock.Alarm measured 9 here: on top of the pair, two bound flush method
// values, the SYN's closure, and a timer handle for each of the SYN, the
// request, the reply and the two FINs.
const dialRoundTripAllocs = 1

func TestDialRoundTripAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	v := NewVirtual(clk, 1)
	v.SetDefaultLink(LinkConfig{Latency: 300 * time.Microsecond})
	l, err := v.Host("b").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	from := v.Host("a")
	req, reply, buf := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	step := func() { clk.Advance(time.Millisecond) }
	op := func() {
		c, err := from.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		step()
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c.Write(req)
		step()
		s.Read(buf)
		s.Write(reply)
		step()
		c.Read(buf)
		c.Close()
		s.Close()
		step()
	}
	for i := 0; i < 64; i++ {
		op() // fill the chunk pool, size the queue and the clock's batch buffer
	}
	if got := testing.AllocsPerRun(2000, op); got != dialRoundTripAllocs {
		t.Errorf("%.0f allocs per dial round trip, want %d", got, dialRoundTripAllocs)
	}
}
