package observe

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestEmitNilSafe(t *testing.T) {
	Emit(nil, Event{Type: WriteError}) // must not panic
	var got []Event
	Emit(Func(func(ev Event) { got = append(got, ev) }), Event{Type: LookupDone, Hops: 3})
	if len(got) != 1 || got[0].Hops != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	var a, b int
	oa := Func(func(Event) { a++ })
	ob := Func(func(Event) { b++ })
	if got := Multi(oa); got == nil {
		t.Fatal("single observer dropped")
	}
	m := Multi(oa, nil, ob)
	m.Observe(Event{Type: ShardLookup, Shard: 1, Err: errors.New("x")})
	if a != 1 || b != 1 {
		t.Errorf("fanout reached a=%d b=%d, want 1 and 1", a, b)
	}
}

// TestTypeStrings walks every declared Type: a new one without an entry in
// the name table fails here instead of silently printing "unknown".
func TestTypeStrings(t *testing.T) {
	seen := map[string]Type{}
	for ty := Type(1); ty < numTypes; ty++ {
		name := ty.String()
		if name == "" || name == "unknown" {
			t.Errorf("Type %d has no name in typeNames", int(ty))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Types %d and %d share the name %q", int(prev), int(ty), name)
		}
		seen[name] = ty
	}
	for ty, want := range map[Type]string{
		WriteError:  "write-error",
		ReshardMove: "reshard-move",
		Type(0):     "unknown",
		numTypes:    "unknown",
		Type(-1):    "unknown",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), got, want)
		}
	}
}

func TestTallyCounts(t *testing.T) {
	var tl Tally
	if got := tl.Snapshot().String(); got != "" {
		t.Errorf("empty tally renders %q", got)
	}
	tl.Observe(Event{Type: ShardLookup, Latency: 3 * time.Millisecond})
	tl.Observe(Event{Type: ShardLookup, Latency: 5 * time.Millisecond, Err: errors.New("down")})
	tl.Observe(Event{Type: ReshardMove, Count: 4, Latency: 2 * time.Millisecond})
	tl.Observe(Event{Type: ReshardMove, Count: 3, Latency: time.Millisecond})
	tl.Observe(Event{Type: ProbeServed})
	tl.Observe(Event{Type: numTypes}) // undeclared: dropped, no panic
	tl.Observe(Event{})
	s := tl.Snapshot()
	if got, want := s.Of(ShardLookup), (Counts{N: 2, Errs: 1, Latency: 8 * time.Millisecond, MaxLatency: 5 * time.Millisecond}); got != want {
		t.Errorf("shard-lookup = %+v, want %+v", got, want)
	}
	if got, want := s.Of(ReshardMove), (Counts{N: 2, Sum: 7, Latency: 3 * time.Millisecond, MaxLatency: 2 * time.Millisecond}); got != want {
		t.Errorf("reshard-move = %+v, want %+v", got, want)
	}
	if got := s.Of(LookupMiss); got != (Counts{}) {
		t.Errorf("lookup-miss = %+v, want zero", got)
	}
	if got := s.Of(numTypes); got != (Counts{}) {
		t.Errorf("undeclared type = %+v, want zero", got)
	}
	if got, want := s.String(), "shard-lookup=2(1 failed) probe-served=1 reshard-move=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if tl.Snapshot() != s {
		t.Error("two readings of a quiet tally differ")
	}
}

// TestTallyConcurrent: N goroutines observing at once lose nothing — the
// totals are exact and the maximum is the true maximum (run under -race).
func TestTallyConcurrent(t *testing.T) {
	const workers, each = 8, 2000
	var tl Tally
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				ev := Event{Type: ShardLookup, Count: 1, Latency: time.Duration(w*each + i)}
				if i%4 == 0 {
					ev.Err = errors.New("x")
				}
				tl.Observe(ev)
				tl.Observe(Event{Type: ProbeServed})
			}
		}(w)
	}
	wg.Wait()
	const n = workers * each
	s := tl.Snapshot()
	want := Counts{N: n, Errs: n / 4, Sum: n, Latency: time.Duration(n * (n + 1) / 2), MaxLatency: n}
	if got := s.Of(ShardLookup); got != want {
		t.Errorf("shard-lookup = %+v, want %+v", got, want)
	}
	if got := s.Of(ProbeServed); got != (Counts{N: n}) {
		t.Errorf("probe-served = %+v, want N = %d and nothing else", got, n)
	}
}

// TestTallyObserveDoesNotAllocate: the tally sits on every component's hot
// path (one Observe per probe, per lookup leg, per reply-write failure).
func TestTallyObserveDoesNotAllocate(t *testing.T) {
	var tl Tally
	var o Observer = &tl
	ev := Event{Component: "node/r1", Type: ShardLookup, Count: 2, Latency: time.Millisecond, Err: errors.New("x")}
	if got := testing.AllocsPerRun(1000, func() { Emit(o, ev) }); got != 0 {
		t.Errorf("Observe allocates %.1f times per event, want 0", got)
	}
}
