package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// engineScript drives an Engine and a reference model through the same
// pseudo-random interleaving of At, After, Schedule, Step and RunUntil —
// callbacks that schedule more events and many equal timestamps included —
// and fails on the first firing that is out of (time, scheduling order).
// The model is a plain slice sorted by (at, seq) before every firing.
func engineScript(t *testing.T, seed int64, ops int) {
	t.Helper()
	type ref struct {
		at  time.Duration
		seq int
	}
	var (
		eng     Engine
		rng     = rand.New(rand.NewSource(seed))
		pending []ref
		nextSeq int
		fired   int
	)
	// delay draws from a few instants, so equal timestamps are the rule.
	delay := func() time.Duration { return time.Duration(rng.Intn(6)) * time.Millisecond }

	var schedule func(depth int)
	schedule = func(depth int) {
		d := delay()
		me := ref{at: eng.Now() + d, seq: nextSeq}
		nextSeq++
		pending = append(pending, me)
		chain := depth < 3 && rng.Intn(4) == 0
		fn := func() {
			sort.Slice(pending, func(i, j int) bool { // (at, seq) is unique
				if pending[i].at != pending[j].at {
					return pending[i].at < pending[j].at
				}
				return pending[i].seq < pending[j].seq
			})
			if pending[0] != me {
				t.Fatalf("seed %d: fired (at %v, seq %d), reference expects (at %v, seq %d)",
					seed, me.at, me.seq, pending[0].at, pending[0].seq)
			}
			if eng.Now() != me.at {
				t.Fatalf("seed %d: event for %v fired at %v", seed, me.at, eng.Now())
			}
			pending = pending[1:]
			fired++
			if chain {
				schedule(depth + 1)
				schedule(depth + 1)
			}
		}
		var err error
		switch rng.Intn(3) {
		case 0:
			err = eng.At(me.at, fn)
		case 1:
			err = eng.After(d, fn)
		default:
			err = eng.Schedule(me.at, funcHandler(fn))
		}
		if err != nil {
			t.Fatalf("seed %d: scheduling: %v", seed, err)
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			schedule(0)
		case r < 9:
			had := len(pending) > 0
			if got := eng.Step(); got != had {
				t.Fatalf("seed %d: Step() = %v with events pending: %v", seed, got, had)
			}
		default:
			horizon := eng.Now() + delay()
			eng.RunUntil(horizon)
			for _, p := range pending {
				if p.at <= horizon {
					t.Fatalf("seed %d: RunUntil(%v) left an event at %v queued", seed, horizon, p.at)
				}
			}
			if eng.Now() != horizon {
				t.Fatalf("seed %d: RunUntil(%v) finished at %v", seed, horizon, eng.Now())
			}
		}
		if eng.Pending() != len(pending) {
			t.Fatalf("seed %d: Pending() = %d, reference holds %d", seed, eng.Pending(), len(pending))
		}
	}
	eng.Run()
	if len(pending) != 0 || eng.Pending() != 0 {
		t.Fatalf("seed %d: %d events never fired", seed, len(pending))
	}
	if eng.Processed() != uint64(fired) {
		t.Fatalf("seed %d: Processed() = %d, %d callbacks ran", seed, eng.Processed(), fired)
	}
}

func TestEngineHeapProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		engineScript(t, seed, 400)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(20021001), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		engineScript(t, seed, int(ops))
	})
}

// TestEnginePopReleasesHandler: a fired event's slot must not keep its
// handler reachable through the slab, whether the slot went back to the free
// list or was never reused.
func TestEnginePopReleasesHandler(t *testing.T) {
	var e Engine
	for i := 0; i < 8; i++ {
		if err := e.At(time.Duration(i), func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(3)
	if err := e.At(100, func() {}); err != nil { // reuses a vacated slot
		t.Fatal(err)
	}
	e.Run()
	for i, ev := range e.slab[:cap(e.slab)] {
		if ev.h != nil {
			t.Errorf("slot %d still holds a handler after the queue drained", i)
		}
	}
}

// holdModel returns an engine with pending events queued and the classic
// hold operation on it: schedule one event at a random future time, fire one.
func holdModel(tb testing.TB, pending int) (*Engine, func()) {
	tb.Helper()
	eng := new(Engine)
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	hold := func() {
		if err := eng.After(time.Duration(1+rng.Int63n(int64(time.Second))), fn); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < pending; i++ {
		hold()
	}
	return eng, func() {
		hold()
		eng.Step()
	}
}

// BenchmarkEngineStep is the hold model with 10,000 events pending, so every
// push and pop walks a full-depth heap.
func BenchmarkEngineStep(b *testing.B) {
	_, op := holdModel(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
