package lookup

import (
	"fmt"
	"math/rand"
	"testing"

	"p2pstream/internal/bandwidth"
)

func TestRegisterAndContains(t *testing.T) {
	d := NewDirectory[string]()
	if d.Len() != 0 {
		t.Error("new directory not empty")
	}
	if err := d.Register(Entry[string]{ID: "a", Class: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(Entry[string]{ID: "a", Class: 2}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := d.Register(Entry[string]{ID: "b", Class: 0}); err == nil {
		t.Error("invalid class should fail")
	}
	if !d.Contains("a") || d.Contains("b") {
		t.Error("Contains wrong")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestUnregister(t *testing.T) {
	d := NewDirectory[int]()
	for i := 0; i < 5; i++ {
		if err := d.Register(Entry[int]{ID: i, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Unregister(2) {
		t.Error("Unregister existing should return true")
	}
	if d.Unregister(2) {
		t.Error("Unregister twice should return false")
	}
	if d.Len() != 4 || d.Contains(2) {
		t.Error("directory state wrong after Unregister")
	}
	// The remaining entries stay reachable via Sample.
	rng := rand.New(rand.NewSource(1))
	got := d.Sample(10, rng)
	if len(got) != 4 {
		t.Fatalf("Sample after removal = %d entries", len(got))
	}
	seen := map[int]bool{}
	for _, e := range got {
		seen[e.ID] = true
	}
	for _, id := range []int{0, 1, 3, 4} {
		if !seen[id] {
			t.Errorf("entry %d lost after Unregister", id)
		}
	}
}

func TestRefreshReplacesInPlace(t *testing.T) {
	d := NewDirectory[string]()
	for _, id := range []string{"a", "b", "c"} {
		if err := d.Register(Entry[string]{ID: id, Class: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Refresh(Entry[string]{ID: "a", Class: 3}); err != nil {
		t.Fatal(err)
	}
	got := d.Sample(3, rand.New(rand.NewSource(1))) // m >= Len: the entries in order
	want := []Entry[string]{{ID: "a", Class: 3}, {ID: "b", Class: 1}, {ID: "c", Class: 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries after refresh: %v, want %v", got, want)
		}
	}
	if err := d.Refresh(Entry[string]{ID: "z", Class: 1}); err == nil {
		t.Error("refreshing an unknown peer should fail")
	}
	if err := d.Refresh(Entry[string]{ID: "b", Class: 0}); err == nil {
		t.Error("refreshing to an invalid class should fail")
	}
}

func TestSampleDistinctAndComplete(t *testing.T) {
	d := NewDirectory[int]()
	const n = 100
	for i := 0; i < n; i++ {
		if err := d.Register(Entry[int]{ID: i, Class: bandwidth.Class(1 + i%4)}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		got := d.Sample(m, rng)
		if len(got) != m {
			t.Fatalf("Sample(%d) returned %d", m, len(got))
		}
		seen := map[int]bool{}
		for _, e := range got {
			if seen[e.ID] {
				t.Fatalf("duplicate %d in sample", e.ID)
			}
			seen[e.ID] = true
		}
	}
}

func TestSampleEdgeCases(t *testing.T) {
	d := NewDirectory[int]()
	rng := rand.New(rand.NewSource(1))
	if got := d.Sample(5, rng); got != nil {
		t.Error("sample of empty directory should be nil")
	}
	d.Register(Entry[int]{ID: 1, Class: 1})
	d.Register(Entry[int]{ID: 2, Class: 2})
	if got := d.Sample(0, rng); got != nil {
		t.Error("Sample(0) should be nil")
	}
	if got := d.Sample(-1, rng); got != nil {
		t.Error("Sample(-1) should be nil")
	}
	got := d.Sample(10, rng)
	if len(got) != 2 {
		t.Errorf("Sample(10) of 2 entries = %d", len(got))
	}
}

func TestSampleUniform(t *testing.T) {
	d := NewDirectory[int]()
	const n = 50
	for i := 0; i < n; i++ {
		d.Register(Entry[int]{ID: i, Class: 1})
	}
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		for _, e := range d.Sample(5, rng) {
			counts[e.ID]++
		}
	}
	want := float64(trials*5) / n // 2000 per entry
	for id, c := range counts {
		if f := float64(c); f < want*0.85 || f > want*1.15 {
			t.Errorf("entry %d sampled %d times, want ~%.0f", id, c, want)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	build := func() *Directory[int] {
		d := NewDirectory[int]()
		for i := 0; i < 30; i++ {
			d.Register(Entry[int]{ID: i, Class: 2})
		}
		return d
	}
	a := build().Sample(8, rand.New(rand.NewSource(9)))
	b := build().Sample(8, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different samples")
		}
	}
}

// floydWithSet is Floyd's algorithm as Sample was first written, with a set
// of picked positions: the reference SampleInto's scan over its picks must
// agree with, draw for draw.
func floydWithSet(entries []Entry[string], m int, rng *rand.Rand) []Entry[string] {
	n := len(entries)
	chosen := make(map[int]struct{}, m)
	var out []Entry[string]
	for i := n - m; i < n; i++ {
		j := rng.Intn(i + 1)
		if _, taken := chosen[j]; taken {
			j = i
		}
		chosen[j] = struct{}{}
		out = append(out, entries[j])
	}
	return out
}

func TestSampleIntoMatchesSetReference(t *testing.T) {
	d := NewDirectory[string]()
	var entries []Entry[string]
	for i := 0; i < 40; i++ {
		e := Entry[string]{ID: fmt.Sprintf("peer-%d", i), Class: bandwidth.Class(1 + i%4)}
		entries = append(entries, e)
		if err := d.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var buf []Entry[string]
	for trial := 0; trial < 2000; trial++ {
		m := 1 + trial%39 // small m rarely collides, m near n nearly always
		buf = d.SampleInto(buf, m, a)
		want := floydWithSet(entries, m, b)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: %d entries, reference %d", trial, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d, m=%d: pick %d is %v, reference %v", trial, m, i, buf[i], want[i])
			}
		}
	}
	// The generators must have been consumed identically too.
	if a.Int63() != b.Int63() {
		t.Error("SampleInto drew a different number of values than the reference")
	}
}

func TestSampleIntoReusesBuffer(t *testing.T) {
	d := NewDirectory[int]()
	for i := 0; i < 3; i++ {
		d.Register(Entry[int]{ID: i, Class: 1})
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]Entry[int], 0, 8)
	got := d.SampleInto(buf, 2, rng)
	if len(got) != 2 || &got[0] != &buf[:1][0] {
		t.Errorf("sample of 2 into a buffer of 8 did not use it: %v", got)
	}
	if got = d.SampleInto(got, 5, rng); len(got) != 3 || &got[0] != &buf[:1][0] {
		t.Errorf("whole-directory sample did not reuse the buffer: %v", got)
	}
	if got = d.SampleInto(got, 0, rng); len(got) != 0 {
		t.Errorf("empty sample left %v in the buffer", got)
	}
}

// BenchmarkDirectorySample measures candidate sampling from a 50,000-peer
// directory (the lookup on every admission attempt).
func BenchmarkDirectorySample(b *testing.B) {
	dir := NewDirectory[int]()
	for i := 0; i < 50000; i++ {
		if err := dir.Register(Entry[int]{ID: i, Class: bandwidth.Class(1 + i%4)}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := dir.Sample(8, rng); len(got) != 8 {
			b.Fatal("bad sample")
		}
	}
}
