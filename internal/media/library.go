package media

import (
	"errors"
	"fmt"
	"sync"
)

// Library is a node's bounded multi-object cache: every media object the
// node holds (complete or mid-download), keyed by file name, under one
// byte budget. Admission of a new object reserves its full size up front
// (a mid-download object occupies its eventual footprint, so the budget
// can never be overrun by concurrent fills) and evicts least-recently-used
// objects to make room. Objects with live sessions are pinned (Acquire /
// Release) and are never evicted; an Add that cannot fit against pinned
// residents fails instead of overcommitting.
//
// Evictions are reported through the OnEvict callback — the node's
// graceful supplier-withdrawal hook (per-object unregister, observer
// event). The callback runs after the library's lock is released, so it
// may call back into the Library and may perform network I/O.
type Library struct {
	mu      sync.Mutex
	budget  int64 // 0 = unbounded
	used    int64
	entries map[string]*libEntry
	// Intrusive LRU list: head is most recently used, tail the eviction
	// candidate. The sentinel root keeps Get allocation-free.
	root      libEntry
	evictions int64
	onEvict   func(f *File)
}

// libEntry is one cached object and its LRU linkage.
type libEntry struct {
	prev, next *libEntry
	file       *File
	store      *Store
	bytes      int64
	pins       int
}

// NewLibrary returns an empty library with the given byte budget
// (0 = unbounded).
func NewLibrary(budget int64) *Library {
	l := &Library{budget: budget, entries: make(map[string]*libEntry)}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

// CheckCatalog reports the first reason files cannot be a node's media
// catalog under a library of the given budget (0 = unbounded): a nil or
// invalid file, two files of one name, or a file the budget cannot hold.
func CheckCatalog(files []*File, budget int64) error {
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		if f == nil {
			return errors.New("media: nil object in catalog")
		}
		if err := f.Validate(); err != nil {
			return fmt.Errorf("media: object %q: %w", f.Name, err)
		}
		if seen[f.Name] {
			return fmt.Errorf("media: duplicate object %q", f.Name)
		}
		seen[f.Name] = true
		if budget > 0 && f.TotalBytes() > budget {
			return fmt.Errorf("media: object %q (%d bytes) exceeds cache budget %d", f.Name, f.TotalBytes(), budget)
		}
	}
	return nil
}

// SetOnEvict installs the eviction callback. It is invoked once per
// evicted object, outside the library's lock, in eviction order.
func (l *Library) SetOnEvict(fn func(f *File)) {
	l.mu.Lock()
	l.onEvict = fn
	l.mu.Unlock()
}

// Budget returns the byte budget (0 = unbounded).
func (l *Library) Budget() int64 { return l.budget }

// Add admits an object, reserving its full TotalBytes against the budget
// and evicting least-recently-used unpinned objects as needed. It fails
// if the object alone exceeds the budget, if the name is already held, or
// if pinned residents leave no room.
func (l *Library) Add(f *File, s *Store) error {
	if f == nil || s == nil {
		return fmt.Errorf("media: library add needs a file and a store")
	}
	size := f.TotalBytes()
	l.mu.Lock()
	if _, ok := l.entries[f.Name]; ok {
		l.mu.Unlock()
		return fmt.Errorf("media: library already holds %q", f.Name)
	}
	if l.budget > 0 && size > l.budget {
		l.mu.Unlock()
		return fmt.Errorf("media: object %q (%d bytes) exceeds the library budget (%d bytes)", f.Name, size, l.budget)
	}
	var evicted []*File
	for l.budget > 0 && l.used+size > l.budget {
		victim := l.lruVictimLocked()
		if victim == nil {
			l.mu.Unlock()
			return fmt.Errorf("media: no room for %q: %d of %d budget bytes pinned by live sessions", f.Name, l.used, l.budget)
		}
		l.removeLocked(victim)
		l.evictions++
		evicted = append(evicted, victim.file)
	}
	e := &libEntry{file: f, store: s, bytes: size}
	l.entries[f.Name] = e
	l.pushFrontLocked(e)
	l.used += size
	fn := l.onEvict
	l.mu.Unlock()
	if fn != nil {
		for _, ef := range evicted {
			fn(ef)
		}
	}
	return nil
}

// Get returns the named object and marks it most recently used.
func (l *Library) Get(name string) (*File, *Store, bool) {
	l.mu.Lock()
	e, ok := l.entries[name]
	if !ok {
		l.mu.Unlock()
		return nil, nil, false
	}
	l.touchLocked(e)
	f, s := e.file, e.store
	l.mu.Unlock()
	return f, s, true
}

// Acquire is Get plus a pin: while pinned, the object cannot be evicted.
// Every successful Acquire must be paired with a Release.
func (l *Library) Acquire(name string) (*File, *Store, bool) {
	l.mu.Lock()
	e, ok := l.entries[name]
	if !ok {
		l.mu.Unlock()
		return nil, nil, false
	}
	e.pins++
	l.touchLocked(e)
	f, s := e.file, e.store
	l.mu.Unlock()
	return f, s, true
}

// Release undoes one Acquire. Releasing an evicted-impossible (still held)
// object is the normal path; releasing an unknown name is a no-op so a
// session racing a (never-possible) removal stays safe.
func (l *Library) Release(name string) {
	l.mu.Lock()
	if e, ok := l.entries[name]; ok && e.pins > 0 {
		e.pins--
	}
	l.mu.Unlock()
}

// Len returns the number of held objects.
func (l *Library) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// UsedBytes returns the bytes currently reserved against the budget.
func (l *Library) UsedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Evictions returns the number of objects evicted so far.
func (l *Library) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}

// Names returns the held object names, most recently used first.
func (l *Library) Names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.entries))
	for e := l.root.next; e != &l.root; e = e.next {
		out = append(out, e.file.Name)
	}
	return out
}

// lruVictimLocked returns the least-recently-used unpinned entry, or nil.
func (l *Library) lruVictimLocked() *libEntry {
	for e := l.root.prev; e != &l.root; e = e.prev {
		if e.pins == 0 {
			return e
		}
	}
	return nil
}

func (l *Library) removeLocked(e *libEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	delete(l.entries, e.file.Name)
	l.used -= e.bytes
}

func (l *Library) pushFrontLocked(e *libEntry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
}

func (l *Library) touchLocked(e *libEntry) {
	if l.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	l.pushFrontLocked(e)
}
