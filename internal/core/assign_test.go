package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/media"
)

// figure1Suppliers is the paper's running example: suppliers of classes
// 1, 2, 3, 3 (offers R0/2, R0/4, R0/8, R0/8).
func figure1Suppliers() []Supplier {
	return []Supplier{
		{ID: "Ps1", Class: 1},
		{ID: "Ps2", Class: 2},
		{ID: "Ps3", Class: 3},
		{ID: "Ps4", Class: 3},
	}
}

func TestAssignFigure1(t *testing.T) {
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	if a.Window != 8 {
		t.Fatalf("Window = %d, want 8", a.Window)
	}
	// Paper, Section 3: after the while iterations Ps1 holds 7,3,1,0;
	// Ps2 holds 6,2; Ps3 holds 5; Ps4 holds 4 (stored ascending).
	want := [][]int{{0, 1, 3, 7}, {2, 6}, {5}, {4}}
	if !reflect.DeepEqual(a.Segments, want) {
		t.Errorf("Segments = %v, want %v", a.Segments, want)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := a.DelaySlots(); got != 4 {
		t.Errorf("DelaySlots = %d, want 4 (Assignment II of Figure 1)", got)
	}
}

func TestBlockAssignFigure1(t *testing.T) {
	a, err := BlockAssign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5}, {6}, {7}}
	if !reflect.DeepEqual(a.Segments, want) {
		t.Errorf("Segments = %v, want %v", a.Segments, want)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Paper, Figure 1(a): Assignment I has buffering delay 5·δt.
	if got := a.DelaySlots(); got != 5 {
		t.Errorf("DelaySlots = %d, want 5 (Assignment I of Figure 1)", got)
	}
}

func TestAscendingAssignFigure1(t *testing.T) {
	a, err := AscendingAssign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := a.DelaySlots(); got <= 4 {
		t.Errorf("ascending baseline delay = %d, want > 4 (OTS must strictly win here)", got)
	}
}

func TestRoundRobinAssignFigure1(t *testing.T) {
	// On the paper's own example the literal Figure 2 transcription agrees
	// with the optimal rule segment for segment.
	a, err := RoundRobinAssign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 3, 7}, {2, 6}, {5}, {4}}
	if !reflect.DeepEqual(a.Segments, want) {
		t.Errorf("Segments = %v, want %v", a.Segments, want)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := a.DelaySlots(); got != 4 {
		t.Errorf("DelaySlots = %d, want 4", got)
	}
}

// TestRoundRobinAssignNotOptimal documents the discrepancy between the
// paper's literal pseudo-code and Theorem 1: for this class mix the plain
// round-robin hand-out yields 13·δt while the optimum (achieved by Assign)
// is n·δt = 10·δt.
func TestRoundRobinAssignNotOptimal(t *testing.T) {
	classes := []bandwidth.Class{2, 3, 3, 3, 3, 4, 4, 4, 5, 5}
	suppliers := make([]Supplier, len(classes))
	for i, c := range classes {
		suppliers[i] = Supplier{ID: string(rune('a' + i)), Class: c}
	}
	rr, err := RoundRobinAssign(suppliers)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rr.DelaySlots(); got != 13 {
		t.Errorf("round-robin delay = %d, want 13 (the documented counterexample)", got)
	}
	opt, err := Assign(suppliers)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.DelaySlots(); got != 10 {
		t.Errorf("optimal delay = %d, want n=10", got)
	}
}

func TestAssignSortsInput(t *testing.T) {
	shuffled := []Supplier{
		{ID: "Ps4", Class: 3},
		{ID: "Ps1", Class: 1},
		{ID: "Ps3", Class: 3},
		{ID: "Ps2", Class: 2},
	}
	a, err := Assign(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"Ps1", "Ps2", "Ps4", "Ps3"} // stable within class 3
	for i, s := range a.Suppliers {
		if s.ID != wantOrder[i] {
			t.Fatalf("Suppliers[%d] = %s, want %s", i, s.ID, wantOrder[i])
		}
	}
	if got := a.DelaySlots(); got != 4 {
		t.Errorf("DelaySlots = %d, want 4", got)
	}
}

func TestAssignErrors(t *testing.T) {
	tests := []struct {
		name      string
		suppliers []Supplier
	}{
		{"empty", nil},
		{"sum below R0", []Supplier{{ID: "a", Class: 1}}},
		{"sum above R0", []Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 1}, {ID: "c", Class: 1}}},
		{"invalid class zero", []Supplier{{ID: "a", Class: 0}}},
		{"invalid class negative", []Supplier{{ID: "a", Class: -2}}},
		{"invalid class too large", []Supplier{{ID: "a", Class: bandwidth.MaxClass + 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for name, fn := range map[string]func([]Supplier) (*Assignment, error){
				"Assign": Assign, "BlockAssign": BlockAssign, "AscendingAssign": AscendingAssign, "RoundRobinAssign": RoundRobinAssign,
			} {
				if _, err := fn(tt.suppliers); err == nil {
					t.Errorf("%s(%v) succeeded, want error", name, tt.suppliers)
				}
			}
		})
	}
}

func TestAssignSingleSupplier(t *testing.T) {
	// A single supplier must offer R0 itself; class >= 1 offers at most
	// R0/2, so no single-supplier session is legal under the paper's model.
	if _, err := Assign([]Supplier{{ID: "a", Class: 1}}); err == nil {
		t.Fatal("single class-1 supplier should not sum to R0")
	}
	// Two class-1 suppliers is the smallest legal session.
	a, err := Assign([]Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Window != 2 {
		t.Errorf("Window = %d, want 2", a.Window)
	}
	if got := a.DelaySlots(); got != 2 {
		t.Errorf("DelaySlots = %d, want 2", got)
	}
}

func TestHomogeneousSuppliers(t *testing.T) {
	for c := bandwidth.Class(1); c <= 4; c++ {
		n := 1 << uint(c)
		suppliers := make([]Supplier, n)
		for i := range suppliers {
			suppliers[i] = Supplier{ID: string(rune('a' + i)), Class: c}
		}
		a, err := Assign(suppliers)
		if err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		if got := a.DelaySlots(); got != int64(n) {
			t.Errorf("class %d homogeneous: delay %d, want %d", c, got, n)
		}
	}
}

func TestSupplierOf(t *testing.T) {
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		segment int
		want    int // index into sorted suppliers
	}{
		{0, 0}, {1, 0}, {3, 0}, {7, 0},
		{2, 1}, {6, 1},
		{5, 2},
		{4, 3},
		{8, 0},  // window repeats: 8 % 8 == 0
		{13, 2}, // 13 % 8 == 5
	}
	for _, tt := range tests {
		got, err := a.SupplierOf(tt.segment)
		if err != nil {
			t.Fatalf("SupplierOf(%d): %v", tt.segment, err)
		}
		if got != tt.want {
			t.Errorf("SupplierOf(%d) = %d, want %d", tt.segment, got, tt.want)
		}
	}
	if _, err := a.SupplierOf(-1); err == nil {
		t.Error("SupplierOf(-1) should fail")
	}
}

func TestTransmissionListPartialWindow(t *testing.T) {
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	// File of 10 segments: one full window (0-7) plus segments 8, 9 of the
	// second window. Within-window 0 and 1 belong to Ps1.
	got := a.TransmissionList(0, 10)
	want := []int{0, 1, 3, 7, 8, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TransmissionList(0, 10) = %v, want %v", got, want)
	}
	if got := a.TransmissionList(2, 10); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("TransmissionList(2, 10) = %v, want [5]", got)
	}
	// All lists together must cover 0..9 exactly once.
	covered := make(map[int]int)
	for i := range a.Suppliers {
		for _, seg := range a.TransmissionList(i, 10) {
			covered[seg]++
		}
	}
	if len(covered) != 10 {
		t.Fatalf("covered %d segments, want 10", len(covered))
	}
	for seg, n := range covered {
		if n != 1 {
			t.Errorf("segment %d covered %d times", seg, n)
		}
	}
}

func TestArrivalSlotsAgainstPlaybackVerifier(t *testing.T) {
	// Cross-check the slot arithmetic with the media-package continuity
	// verifier on a multi-window file.
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	const numSegments = 64
	f := &media.File{Name: "x", Segments: numSegments, SegmentBytes: 1, SegmentTime: time.Second}
	slots := a.ArrivalSlots(numSegments)
	arrivals := make([]time.Duration, numSegments)
	for s, slot := range slots {
		arrivals[s] = time.Duration(slot) * f.SegmentTime
	}
	delay := time.Duration(a.DelaySlots()) * f.SegmentTime
	report, err := media.VerifyPlayback(f, arrivals, delay)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Continuous() {
		t.Errorf("OTS schedule stalls %d times starting at segment %d", report.Stalls, report.FirstStall)
	}
	// One slot less must stall: the delay is tight.
	report, err = media.VerifyPlayback(f, arrivals, delay-f.SegmentTime)
	if err != nil {
		t.Fatal(err)
	}
	if report.Continuous() {
		t.Error("delay below Theorem 1 bound should stall")
	}
	minimal, err := media.MinimalDelay(f, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if minimal != delay {
		t.Errorf("MinimalDelay = %v, want %v", minimal, delay)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *Assignment {
		a, err := Assign(figure1Suppliers())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	tests := []struct {
		name   string
		mutate func(*Assignment)
	}{
		{"wrong window", func(a *Assignment) { a.Window = 4 }},
		{"segment assigned twice", func(a *Assignment) { a.Segments[3][0] = 5 }},
		{"segment out of range", func(a *Assignment) { a.Segments[3][0] = 99 }},
		{"not ascending", func(a *Assignment) { a.Segments[0][0], a.Segments[0][1] = a.Segments[0][1], a.Segments[0][0] }},
		{"quota mismatch", func(a *Assignment) { a.Segments[0] = a.Segments[0][:3] }},
		{"missing list", func(a *Assignment) { a.Segments = a.Segments[:3] }},
		{"offers broken", func(a *Assignment) { a.Suppliers[0].Class = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := fresh()
			tt.mutate(a)
			if err := a.Validate(); err == nil {
				t.Error("Validate accepted corrupted assignment")
			}
		})
	}
}

// randomSupplierSet builds a random multiset of classes whose offers sum to
// exactly R0 by recursively splitting: start from one virtual class-0 peer
// and repeatedly replace a random peer of class c with two peers of class
// c+1. Every reachable multiset has an exact-R0 sum by construction.
func randomSupplierSet(rng *rand.Rand, maxClass bandwidth.Class, maxPeers int) []Supplier {
	classes := []bandwidth.Class{0}
	for {
		splittable := make([]int, 0, len(classes))
		for i, c := range classes {
			if c < maxClass {
				splittable = append(splittable, i)
			}
		}
		mustSplit := false
		for _, c := range classes {
			if c == 0 {
				mustSplit = true
			}
		}
		if len(splittable) == 0 || (!mustSplit && (len(classes) >= maxPeers || rng.Intn(3) == 0)) {
			break
		}
		i := splittable[rng.Intn(len(splittable))]
		c := classes[i]
		classes[i] = c + 1
		classes = append(classes, c+1)
	}
	suppliers := make([]Supplier, len(classes))
	for i, c := range classes {
		suppliers[i] = Supplier{ID: string(rune('A'+i%26)) + string(rune('0'+i/26)), Class: c}
	}
	return suppliers
}

// TestTheorem1Property is the core property test: for random valid supplier
// multisets, OTS_p2p produces a structurally valid assignment whose
// buffering delay is exactly n·δt, and both baselines never beat it.
func TestTheorem1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		suppliers := randomSupplierSet(rng, 6, 32)
		a, err := Assign(suppliers)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, suppliers, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("trial %d (%v): %v", trial, suppliers, err)
		}
		n := int64(len(suppliers))
		if got := a.DelaySlots(); got != n {
			t.Fatalf("trial %d (%v): OTS delay %d, want n=%d", trial, suppliers, got, n)
		}
		for name, fn := range map[string]func([]Supplier) (*Assignment, error){
			"BlockAssign": BlockAssign, "AscendingAssign": AscendingAssign,
		} {
			b, err := fn(suppliers)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got := b.DelaySlots(); got < n {
				t.Fatalf("trial %d (%v): %s delay %d beats Theorem 1 bound %d", trial, suppliers, name, got, n)
			}
		}
	}
}

// TestTheorem1Exhaustive proves optimality at small sizes: no assignment of
// the window can achieve a delay below n·δt, and OTS meets it.
func TestTheorem1Exhaustive(t *testing.T) {
	cases := [][]bandwidth.Class{
		{1, 1},
		{1, 2, 2},
		{2, 2, 2, 2},
		{1, 2, 3, 3},
		{1, 2, 3, 4, 4},
		{1, 3, 3, 3, 3},
		{1, 2, 4, 4, 4, 4},
	}
	for _, classes := range cases {
		suppliers := make([]Supplier, len(classes))
		for i, c := range classes {
			suppliers[i] = Supplier{ID: string(rune('a' + i)), Class: c}
		}
		best, err := ExhaustiveMinDelaySlots(suppliers)
		if err != nil {
			t.Fatalf("%v: %v", classes, err)
		}
		if want := int64(len(classes)); best != want {
			t.Errorf("%v: exhaustive best delay %d, want %d", classes, best, want)
		}
		a, err := Assign(suppliers)
		if err != nil {
			t.Fatalf("%v: %v", classes, err)
		}
		if got := a.DelaySlots(); got != best {
			t.Errorf("%v: OTS delay %d != exhaustive best %d", classes, got, best)
		}
	}
}

func TestExhaustiveRejectsLargeWindow(t *testing.T) {
	suppliers := []Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 2}, {ID: "c", Class: 3},
		{ID: "d", Class: 5}, {ID: "e", Class: 5}, {ID: "f", Class: 4}}
	if _, err := ExhaustiveMinDelaySlots(suppliers); err == nil {
		t.Error("window 32 should be rejected")
	}
	if _, err := ExhaustiveMinDelaySlots(nil); err == nil {
		t.Error("empty suppliers should be rejected")
	}
}

func TestOptimalDelaySlots(t *testing.T) {
	for n := 0; n < 10; n++ {
		if got := OptimalDelaySlots(n); got != int64(n) {
			t.Errorf("OptimalDelaySlots(%d) = %d", n, got)
		}
	}
}

func TestSupplierOffer(t *testing.T) {
	s := Supplier{ID: "x", Class: 3}
	if got := s.Offer(); got != bandwidth.R0/8 {
		t.Errorf("Offer = %v, want R0/8", got)
	}
}

// TestDelaySlotsMatchesArrivalSlots: DelaySlots walks the segment lists of
// one window directly; the definition it shortcuts is the worst lateness
// over ArrivalSlots(Window). All four strategies, random supplier sets.
func TestDelaySlotsMatchesArrivalSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(1802))
	for trial := 0; trial < 300; trial++ {
		suppliers := randomSupplierSet(rng, 6, 32)
		for name, fn := range map[string]func([]Supplier) (*Assignment, error){
			"Assign": Assign, "RoundRobinAssign": RoundRobinAssign,
			"BlockAssign": BlockAssign, "AscendingAssign": AscendingAssign,
		} {
			a, err := fn(suppliers)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			var want int64
			for seg, arr := range a.ArrivalSlots(a.Window) {
				if d := arr - int64(seg); d > want {
					want = d
				}
			}
			if got := a.DelaySlots(); got != want {
				t.Fatalf("trial %d (%v) %s: DelaySlots %d, worst lateness over one window %d", trial, suppliers, name, got, want)
			}
		}
	}
}

// TestTransmissionListExactlySized: the list is allocated once at its final
// length, for whole windows, partial windows and files shorter than one.
func TestTransmissionListExactlySized(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		a, err := Assign(randomSupplierSet(rng, 5, 16))
		if err != nil {
			t.Fatal(err)
		}
		for _, numSegments := range []int{0, 1, a.Window - 1, a.Window, a.Window + 1, 3*a.Window + rng.Intn(a.Window), 1024} {
			total := 0
			for i := range a.Suppliers {
				list := a.TransmissionList(i, numSegments)
				if len(list) != cap(list) {
					t.Fatalf("supplier %d of %v, %d segments: list of %d in a backing of %d", i, a.Suppliers, numSegments, len(list), cap(list))
				}
				if !sort.IntsAreSorted(list) {
					t.Fatalf("supplier %d, %d segments: list not ascending: %v", i, numSegments, list)
				}
				total += len(list)
			}
			if total != numSegments {
				t.Fatalf("%v, %d segments: lists cover %d", a.Suppliers, numSegments, total)
			}
		}
	}
}

// TestAssignSegmentListsDoNotOverlap: the lists share one backing array, so
// each must be capped at its quota — appending to one must not write into
// its neighbour.
func TestAssignSegmentListsDoNotOverlap(t *testing.T) {
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(a.Segments[1:])
	_ = append(a.Segments[0], -1)
	if after := fmt.Sprint(a.Segments[1:]); after != before {
		t.Errorf("appending to supplier 0's list changed its neighbours: %s -> %s", before, after)
	}
	for i, list := range a.Segments {
		if len(list) != cap(list) {
			t.Errorf("supplier %d: %d segments in a list of capacity %d", i, len(list), cap(list))
		}
	}
}

// TestAssignInPlaceLeavesNothingStale: an assignment recomputed in place for
// a smaller session, then a larger one again, is exactly what a fresh Assign
// returns — no list of the earlier session survives past len(Suppliers).
func TestAssignInPlaceLeavesNothingStale(t *testing.T) {
	four := figure1Suppliers()
	two := []Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 1}}
	var a Assignment
	for _, suppliers := range [][]Supplier{four, two, four} {
		if err := a.Assign(suppliers); err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%d suppliers: %v", len(suppliers), err)
		}
		fresh, err := Assign(suppliers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Suppliers, fresh.Suppliers) || a.Window != fresh.Window ||
			!reflect.DeepEqual(a.Segments, fresh.Segments) {
			t.Errorf("%d suppliers in place: %v window %d %v, fresh: %v window %d %v", len(suppliers),
				a.Suppliers, a.Window, a.Segments, fresh.Suppliers, fresh.Window, fresh.Segments)
		}
		if got, want := a.DelaySlots(), OptimalDelaySlots(len(suppliers)); got != want {
			t.Errorf("%d suppliers: delay %d slots, Theorem 1 wants %d", len(suppliers), got, want)
		}
	}
	// A failed Assign leaves the assignment as it was.
	if err := a.Assign(two[:1]); err == nil {
		t.Fatal("offers summing to R0/2 accepted")
	}
	if err := a.Validate(); err != nil || len(a.Suppliers) != 4 {
		t.Errorf("after a failed Assign: %d suppliers, Validate: %v", len(a.Suppliers), err)
	}
}

// BenchmarkOTSAssign measures OTS_p2p itself across session sizes: 2^k
// homogeneous class-k suppliers, the smallest exact-R0 mix of each size.
func BenchmarkOTSAssign(b *testing.B) {
	for k := 2; k <= 5; k++ {
		suppliers := make([]Supplier, 1<<uint(k))
		for i := range suppliers {
			suppliers[i] = Supplier{ID: fmt.Sprint(i), Class: bandwidth.Class(k)}
		}
		b.Run(fmt.Sprintf("suppliers=%d", len(suppliers)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := Assign(suppliers)
				if err != nil {
					b.Fatal(err)
				}
				if a.DelaySlots() != int64(len(suppliers)) {
					b.Fatal("Theorem 1 violated")
				}
			}
		})
	}
}
