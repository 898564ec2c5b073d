package media

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func libFile(name string, segments int) *File {
	return &File{Name: name, Segments: segments, SegmentBytes: 64, SegmentTime: time.Millisecond}
}

func seededStore(tb testing.TB, f *File) *Store {
	tb.Helper()
	s, err := NewSeededStore(f)
	if err != nil {
		tb.Fatalf("seeded store %s: %v", f.Name, err)
	}
	return s
}

func TestLibraryAddGetEvict(t *testing.T) {
	a, b, c := libFile("a", 4), libFile("b", 4), libFile("c", 4)
	// Budget fits exactly two objects.
	l := NewLibrary(2 * a.TotalBytes())
	var evicted []string
	l.SetOnEvict(func(f *File) { evicted = append(evicted, f.Name) })

	for _, f := range []*File{a, b} {
		if err := l.Add(f, seededStore(t, f)); err != nil {
			t.Fatalf("add %s: %v", f.Name, err)
		}
	}
	if got := l.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	// Touch a so b becomes the LRU victim.
	if _, _, ok := l.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if err := l.Add(c, seededStore(t, c)); err != nil {
		t.Fatalf("add c: %v", err)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, _, ok := l.Get("b"); ok {
		t.Fatal("b still held after eviction")
	}
	if got := l.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got, want := l.UsedBytes(), 2*a.TotalBytes(); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
}

func TestLibraryRejectsOversizeAndDuplicates(t *testing.T) {
	a := libFile("a", 8)
	l := NewLibrary(a.TotalBytes() - 1)
	if err := l.Add(a, seededStore(t, a)); err == nil {
		t.Fatal("oversize object admitted")
	}
	l = NewLibrary(0)
	if err := l.Add(a, seededStore(t, a)); err != nil {
		t.Fatalf("unbounded add: %v", err)
	}
	if err := l.Add(a, seededStore(t, a)); err == nil {
		t.Fatal("duplicate name admitted")
	}
}

// TestCheckCatalog pins CheckCatalog's verdict on each malformed catalog
// and its acceptance of a well-formed one, including the empty catalog.
func TestCheckCatalog(t *testing.T) {
	a, b := libFile("a", 8), libFile("b", 4) // 512 and 256 bytes
	tests := []struct {
		name   string
		files  []*File
		budget int64
		want   string // "" = accepted
	}{
		{"empty", nil, 0, ""},
		{"unbounded", []*File{a, b}, 0, ""},
		{"fits budget", []*File{a, b}, a.TotalBytes(), ""},
		{"nil", []*File{a, nil}, 0, "nil object in catalog"},
		{"invalid", []*File{{Name: "z", SegmentBytes: 1, SegmentTime: time.Second}}, 0, `object "z"`},
		{"duplicate", []*File{a, b, libFile("a", 1)}, 0, `duplicate object "a"`},
		{"over budget", []*File{b, a}, a.TotalBytes() - 1, `object "a" (512 bytes) exceeds cache budget 511`},
	}
	for _, tt := range tests {
		err := CheckCatalog(tt.files, tt.budget)
		switch {
		case tt.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tt.name, err)
		case tt.want != "" && (err == nil || !strings.Contains(err.Error(), tt.want)):
			t.Errorf("%s: err = %v, want it to contain %q", tt.name, err, tt.want)
		}
	}
}

func TestLibraryPinBlocksEviction(t *testing.T) {
	a, b := libFile("a", 4), libFile("b", 4)
	l := NewLibrary(a.TotalBytes())
	if err := l.Add(a, seededStore(t, a)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l.Acquire("a"); !ok {
		t.Fatal("acquire a")
	}
	// a is pinned and the budget is full: b must be refused, not admitted
	// over a live session's object.
	if err := l.Add(b, seededStore(t, b)); err == nil {
		t.Fatal("add over a fully pinned budget succeeded")
	}
	l.Release("a")
	if err := l.Add(b, seededStore(t, b)); err != nil {
		t.Fatalf("add after release: %v", err)
	}
	if _, _, ok := l.Get("a"); ok {
		t.Fatal("a survived eviction after release")
	}
}

// TestLibraryEvictionRace races eviction-triggering Adds against sessions
// acquiring and releasing live objects and a "just-admitted probe" path
// that acquires immediately after a positive lookup — the -race seam for
// the cache-churn scenario. The invariants (budget never exceeded, pinned
// objects never evicted) are re-checked after every operation.
func TestLibraryEvictionRace(t *testing.T) {
	const (
		objects = 8
		workers = 8
		rounds  = 200
	)
	files := make([]*File, objects)
	for i := range files {
		files[i] = libFile(fmt.Sprintf("o%d", i), 4)
	}
	size := files[0].TotalBytes()
	l := NewLibrary(3 * size)
	var mu sync.Mutex
	evicted := make(map[string]int)
	l.SetOnEvict(func(f *File) {
		mu.Lock()
		evicted[f.Name]++
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < rounds; i++ {
				f := files[rng.Intn(objects)]
				switch rng.Intn(3) {
				case 0: // a requester admitting a new object (may evict)
					l.Add(f, seededStore(t, f))
				case 1: // an active session: pin, stream, unpin
					if _, _, ok := l.Acquire(f.Name); ok {
						if used := l.UsedBytes(); used > l.Budget() {
							t.Errorf("budget exceeded: %d > %d", used, l.Budget())
						}
						l.Release(f.Name)
					}
				case 2: // a just-admitted probe turning into a session start
					if _, s, ok := l.Acquire(f.Name); ok {
						s.Count()
						l.Release(f.Name)
					}
				}
				if used := l.UsedBytes(); used > l.Budget() {
					t.Errorf("budget exceeded: %d > %d", used, l.Budget())
				}
			}
		}()
	}
	wg.Wait()
	if used, budget := l.UsedBytes(), l.Budget(); used > budget {
		t.Fatalf("final budget exceeded: %d > %d", used, budget)
	}
}

// TestLibraryPropertyRandomOps drives a long random operation sequence
// against a reference model: the byte budget is never exceeded, a pinned
// object is never evicted, and the LRU victim is always the
// least-recently-used unpinned object.
func TestLibraryPropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		objects := 2 + rng.Intn(6)
		files := make([]*File, objects)
		for i := range files {
			files[i] = libFile(fmt.Sprintf("t%d-o%d", trial, i), 1+rng.Intn(6))
		}
		var maxSize int64
		for _, f := range files {
			if s := f.TotalBytes(); s > maxSize {
				maxSize = s
			}
		}
		budget := maxSize + rng.Int63n(3*maxSize)
		l := NewLibrary(budget)
		pinned := make(map[string]int)
		l.SetOnEvict(func(f *File) {
			if pinned[f.Name] > 0 {
				t.Fatalf("trial %d: evicted pinned object %s", trial, f.Name)
			}
		})
		for op := 0; op < 300; op++ {
			f := files[rng.Intn(objects)]
			switch rng.Intn(4) {
			case 0:
				l.Add(f, seededStore(t, f))
			case 1:
				l.Get(f.Name)
			case 2:
				if _, _, ok := l.Acquire(f.Name); ok {
					pinned[f.Name]++
				}
			case 3:
				if pinned[f.Name] > 0 {
					pinned[f.Name]--
					l.Release(f.Name)
				}
			}
			if used := l.UsedBytes(); used > budget {
				t.Fatalf("trial %d op %d: used %d > budget %d", trial, op, used, budget)
			}
		}
		for name, n := range pinned {
			for ; n > 0; n-- {
				l.Release(name)
			}
		}
	}
}

// FuzzLibraryBudget feeds arbitrary operation streams into a small
// library and asserts the budget and pin invariants hold for every
// prefix.
func FuzzLibraryBudget(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 1})
	f.Add([]byte{5, 5, 5, 9, 9, 1, 2, 250, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		files := make([]*File, 4)
		for i := range files {
			files[i] = libFile(fmt.Sprintf("f%d", i), 1+i)
		}
		budget := files[3].TotalBytes() + files[0].TotalBytes()
		l := NewLibrary(budget)
		pinned := make(map[string]int)
		l.SetOnEvict(func(f *File) {
			if pinned[f.Name] > 0 {
				t.Fatalf("evicted pinned object %s", f.Name)
			}
		})
		for _, op := range ops {
			f := files[int(op)%len(files)]
			switch (op / 4) % 3 {
			case 0:
				l.Add(f, seededStore(t, f))
			case 1:
				if _, _, ok := l.Acquire(f.Name); ok {
					pinned[f.Name]++
				}
			case 2:
				if pinned[f.Name] > 0 {
					pinned[f.Name]--
					l.Release(f.Name)
				}
			}
			if used := l.UsedBytes(); used > budget {
				t.Fatalf("used %d > budget %d", used, budget)
			}
		}
	})
}

// BenchmarkLibraryLookup measures the steady-state supplier-side path:
// one Acquire+Release per served exchange against a warm multi-object
// cache. Target: 0 allocs/op.
func BenchmarkLibraryLookup(b *testing.B) {
	const objects = 16
	l := NewLibrary(0)
	names := make([]string, objects)
	for i := 0; i < objects; i++ {
		f := libFile(fmt.Sprintf("o%d", i), 8)
		if err := l.Add(f, seededStore(b, f)); err != nil {
			b.Fatal(err)
		}
		names[i] = f.Name
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i%objects]
		if _, _, ok := l.Acquire(name); !ok {
			b.Fatal("missing object")
		}
		l.Release(name)
	}
}

// rotatingGet fills an unbounded library with 64 objects and returns the
// supplier hot path of the bounded node cache: one Get per call, rotating
// through the whole catalog so every call moves an entry to the LRU front.
func rotatingGet(tb testing.TB) (get func()) {
	const objects = 64
	l := NewLibrary(0)
	names := make([]string, objects)
	for i := range names {
		f := libFile(fmt.Sprintf("obj-%02d", i), 4)
		if err := l.Add(f, seededStore(tb, f)); err != nil {
			tb.Fatal(err)
		}
		names[i] = f.Name
	}
	i := 0
	return func() {
		if _, _, ok := l.Get(names[i%objects]); !ok {
			tb.Fatalf("object %s missing", names[i%objects])
		}
		i++
	}
}

// TestLibraryGetAllocs: the intrusive LRU list keeps the lookup
// allocation-free, so a session start never feeds the collector.
func TestLibraryGetAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(1000, rotatingGet(t)); got != 0 {
		t.Errorf("Library.Get: %.0f allocs/op, want 0", got)
	}
}

// BenchmarkLibraryGet measures one rotating Get.
func BenchmarkLibraryGet(b *testing.B) {
	get := rotatingGet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}
