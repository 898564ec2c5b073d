package sim

import (
	"math/bits"
	"slices"
	"testing"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	var e Engine
	var fired []int
	e.After(3*time.Second, func() { fired = append(fired, 3) })
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(2*time.Second, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired order = %v", fired)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { fired = append(fired, i) })
	}
	e.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", fired)
		}
	}
}

func TestEngineSchedulingFromCallback(t *testing.T) {
	var e Engine
	var times []time.Duration
	e.After(time.Second, func() {
		times = append(times, e.Now())
		e.After(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestEngineRejectsPastAndNil(t *testing.T) {
	var e Engine
	e.After(time.Second, func() {})
	e.Run()
	if err := e.At(0, func() {}); err == nil {
		t.Error("At(past) should fail")
	}
	if err := e.After(-time.Second, func() {}); err == nil {
		t.Error("After(negative) should fail")
	}
	if err := e.After(time.Second, nil); err == nil {
		t.Error("nil callback should fail")
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	var fired []time.Duration
	for _, d := range []time.Duration{1, 5, 10, 15} {
		d := d * time.Second
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Errorf("fired %v, want events at 1s,5s,10s", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want clamped to horizon", e.Now())
	}
	// Resume past the horizon.
	e.RunUntil(20 * time.Second)
	if len(fired) != 4 {
		t.Errorf("fired %v after extended horizon", fired)
	}
}

func TestEngineRunUntilEmptyAdvancesClock(t *testing.T) {
	var e Engine
	e.RunUntil(time.Hour)
	if e.Now() != time.Hour {
		t.Errorf("Now = %v, want horizon", e.Now())
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Int63() == NewRNG(2).Int63() {
		t.Error("different seeds gave same first value (suspicious)")
	}
}

func TestChildSeed(t *testing.T) {
	if ChildSeed(1, "arrivals") == ChildSeed(1, "classes") {
		t.Error("different labels should give different seeds")
	}
	if ChildSeed(1, "arrivals") == ChildSeed(2, "arrivals") {
		t.Error("different masters should give different seeds")
	}
	if ChildSeed(1, "arrivals") != ChildSeed(1, "arrivals") {
		t.Error("ChildSeed must be deterministic")
	}
}

func TestEngineManyEvents(t *testing.T) {
	var e Engine
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		e.At(time.Duration(n-i)*time.Millisecond, func() { count++ })
	}
	e.Run()
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
	if e.Now() != n*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
}

// TestEngineScheduleBeforeUnfiredNext: the radix base never passes now.
// RunUntil(h) that stops short of an event at t > h, and a NextAt that finds
// t, must both leave room to schedule anything at or after now: s with
// h < s < t fires before t, and so does an event at now itself.
func TestEngineScheduleBeforeUnfiredNext(t *testing.T) {
	var e Engine
	var fired []string
	note := func(name string) func() { return func() { fired = append(fired, name) } }
	if err := e.At(1000, note("t")); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(100)
	if len(fired) != 0 || e.Now() != 100 {
		t.Fatalf("RunUntil(100) fired %v, now %v", fired, e.Now())
	}
	if at, ok := e.NextAt(); !ok || at != 1000 {
		t.Fatalf("NextAt = %v, %v; want 1000", at, ok)
	}
	for _, ev := range []struct {
		at   time.Duration
		name string
	}{{999, "s"}, {101, "s0"}, {100, "now"}} {
		if err := e.At(ev.at, note(ev.name)); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if want := []string{"now", "s0", "s", "t"}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// TestEngineFIFOAcrossRefill: events at one time keep their scheduling
// order while the queue moves them down — some scheduled while the time sits
// in a high bucket, some after a refill made it the base, where pushes land
// in bucket 0 behind those the refill brought down.
func TestEngineFIFOAcrossRefill(t *testing.T) {
	const at = 1 << 20
	var e Engine
	var fired []int
	var seqs []uint64
	n := 0
	var schedule func()
	fire := func(i int) func() {
		return func() {
			fired = append(fired, i)
			seqs = append(seqs, e.FiringSeq())
			if i == 0 {
				// Fired at the base: bucket 0 holds the rest of the time's
				// events, and a push at it must go behind them.
				schedule()
				schedule()
				if tail := e.buckets[0].tail; e.buckets[0].head == 0 || e.slab[tail].seq != e.LastSeq() {
					t.Error("a push at the base did not land at bucket 0's tail")
				}
			}
		}
	}
	schedule = func() {
		if err := e.At(at, fire(n)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	schedule()
	schedule()
	// An earlier event forces a refill with the time still in a high bucket;
	// its handler schedules more of the time's events there.
	if err := e.At(3, func() {
		schedule()
		schedule()
		b := bits.Len64(uint64(at) ^ uint64(e.base))
		if tail := e.buckets[b].tail; b == 0 || e.buckets[b].head == 0 || e.slab[tail].seq != e.LastSeq() {
			t.Errorf("a push at %d after a refill did not land at a high bucket's tail (bucket %d)", at, b)
		}
	}); err != nil {
		t.Fatal(err)
	}
	schedule()
	e.Run()
	if len(fired) != n || n != 7 {
		t.Fatalf("fired %d of %d events", len(fired), n)
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("equal-time events fired in order %v", fired)
		}
	}
	if !slices.IsSorted(seqs) {
		t.Errorf("FiringSeq out of order: %v", seqs)
	}
}
