package protocol

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
)

// sweep drives an Attempt against in-memory suppliers, granting per the
// given decisions (indexed like classes).
func sweep(t *testing.T, classes []bandwidth.Class, decide func(idx int) (dac.Decision, bool)) *Attempt {
	t.Helper()
	att := NewAttempt(classes)
	for {
		idx, ok := att.Next()
		if !ok {
			return att
		}
		dec, favors := decide(idx)
		att.Record(idx, dec, favors)
	}
}

func TestAttemptAdmitsAtExactlyR0(t *testing.T) {
	// Classes 3, 1, 2: probed high class first (1, 2, 3); 1/2 + 1/4 + 1/8
	// overshoots after 3 candidates? No: 1/2+1/4 = 3/4, +1/8 = 7/8 < R0 —
	// use the Figure 1 mix instead: 1, 2, 3, 3 sums to exactly R0.
	classes := []bandwidth.Class{3, 1, 2, 3}
	att := sweep(t, classes, func(int) (dac.Decision, bool) { return dac.Granted, true })
	if !att.Admitted() {
		t.Fatal("not admitted with offers summing to R0")
	}
	// Probe order is high class first: indices 1 (class 1), 2 (class 2),
	// then the class-3 candidates in positional order.
	want := []int{1, 2, 0, 3}
	got := att.Chosen()
	if len(got) != len(want) {
		t.Fatalf("chosen %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chosen %v, want %v", got, want)
		}
	}
}

func TestAttemptStopsProbingAtR0(t *testing.T) {
	classes := []bandwidth.Class{1, 1, 1, 1}
	probed := 0
	att := sweep(t, classes, func(int) (dac.Decision, bool) { probed++; return dac.Granted, true })
	if !att.Admitted() {
		t.Fatal("not admitted")
	}
	if probed != 2 {
		t.Errorf("probed %d candidates, want 2 (sweep must stop at R0)", probed)
	}
}

func TestAttemptSkipsOvershootingGrant(t *testing.T) {
	// Class 1 (1/2) granted, class 1 granted, class 1 granted: the third
	// grant would overshoot; with only two needed the attempt stops. Now
	// force overshoot-skipping: 1/2 granted, then 1/2 denied, then 1/4+1/4.
	classes := []bandwidth.Class{1, 1, 2, 2}
	att := sweep(t, classes, func(idx int) (dac.Decision, bool) {
		if idx == 1 {
			return dac.DeniedProbability, false
		}
		return dac.Granted, true
	})
	if !att.Admitted() {
		t.Fatal("not admitted: 1/2 + 1/4 + 1/4 = R0")
	}
	if n := len(att.Chosen()); n != 3 {
		t.Errorf("chosen %d suppliers, want 3", n)
	}
}

func TestAttemptRejectionAndReminderTargets(t *testing.T) {
	// All busy; only some favor the requester. Reminder targets are the
	// busy favoring candidates, high class first, accumulated to R0.
	classes := []bandwidth.Class{1, 1, 2, 4}
	att := sweep(t, classes, func(idx int) (dac.Decision, bool) {
		return dac.DeniedBusy, idx != 2 // the class-2 candidate does not favor us
	})
	if att.Admitted() {
		t.Fatal("admitted with zero grants")
	}
	targets := att.ReminderTargets()
	// 1/2 (idx 0) + 1/2 (idx 1) = R0; idx 3 would overshoot, idx 2 is not
	// favoring.
	if len(targets) != 2 || targets[0] != 0 || targets[1] != 1 {
		t.Errorf("targets = %v, want [0 1]", targets)
	}
}

func TestAttemptDownYieldsNothing(t *testing.T) {
	classes := []bandwidth.Class{1, 1}
	att := NewAttempt(classes)
	for {
		idx, ok := att.Next()
		if !ok {
			break
		}
		att.Down(idx)
	}
	if att.Admitted() {
		t.Error("admitted with every candidate down")
	}
	if len(att.ReminderTargets()) != 0 {
		t.Error("down candidates produced reminder targets")
	}
}

// TestAttemptDoomed: Doomed turns true at the probe after which the grants
// gathered and every offer not yet probed cannot reach R0, stays true for
// the rest of the sweep (which goes on for the reminder set), and is never
// true of an attempt that can still be — or was — admitted.
func TestAttemptDoomed(t *testing.T) {
	// 1/2 + 1/4 + 1/8 + 1/8 = R0: reachable until one offer is lost.
	att := NewAttempt([]bandwidth.Class{1, 2, 3, 3})
	step := func(dec dac.Decision) {
		t.Helper()
		idx, ok := att.Next()
		if !ok {
			t.Fatal("sweep ended early")
		}
		att.Record(idx, dec, true)
	}
	step(dac.Granted)
	step(dac.Granted)
	if att.Doomed() {
		t.Fatal("doomed with 3/4 granted and 1/4 still to probe")
	}
	step(dac.DeniedBusy)
	if !att.Doomed() {
		t.Fatal("not doomed with 3/4 granted and 1/8 left")
	}
	if len(att.Chosen()) != 2 {
		t.Fatalf("chosen %v, want the two grants", att.Chosen())
	}
	step(dac.Granted) // the sweep goes on; a late grant changes nothing
	if !att.Doomed() || att.Admitted() {
		t.Errorf("doomed = %v, admitted = %v after the last probe", att.Doomed(), att.Admitted())
	}

	att.Reset([]bandwidth.Class{1, 1})
	if att.Doomed() {
		t.Error("a fresh attempt over offers summing to R0 is doomed")
	}
	step(dac.Granted)
	step(dac.Granted)
	if att.Doomed() || !att.Admitted() {
		t.Errorf("doomed = %v, admitted = %v at exactly R0", att.Doomed(), att.Admitted())
	}
	att.Reset([]bandwidth.Class{1, 2})
	if !att.Doomed() {
		t.Error("offers summing to 3/4 are not doomed from the start")
	}
}

func TestAssignSessionChecksTheorem1(t *testing.T) {
	a, err := AssignSession([]core.Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 2}, {ID: "c", Class: 3}, {ID: "d", Class: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.DelaySlots(); got != 4 {
		t.Errorf("delay = %d slots, want 4", got)
	}
	if _, err := AssignSession([]core.Supplier{{ID: "a", Class: 2}}); err == nil {
		t.Error("offers below R0 accepted")
	}
}

func TestSessionTiming(t *testing.T) {
	dt := 4 * time.Millisecond
	if got := TheoreticalDelay(3, dt); got != 12*time.Millisecond {
		t.Errorf("TheoreticalDelay = %v", got)
	}
	// A class-2 supplier sends one segment every 4·δt.
	if got := TransmissionDeadline(0, 2, dt); got != 16*time.Millisecond {
		t.Errorf("first deadline = %v, want 16ms", got)
	}
	if got := TransmissionDeadline(2, 1, dt); got != 24*time.Millisecond {
		t.Errorf("third class-1 deadline = %v, want 24ms", got)
	}
}

// TestSupplierIdleElevation: under a virtual clock, idle timeouts elevate
// the vector step by step until all classes are favored, then stop.
func TestSupplierIdleElevation(t *testing.T) {
	clk := clock.NewVirtual()
	sup, err := NewSupplier(1, 4, dac.DAC, clk, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A class-1 supplier in K=4 favors classes down to its own and must
	// elevate (4-1) = 3 times to favor everyone, one per T_out.
	for want := bandwidth.Class(2); want <= 4; want++ {
		clk.Advance(10 * time.Second)
		if got := sup.LowestFavored(); got != want {
			t.Fatalf("LowestFavored = %d after %d idle timeouts, want %d", got, want-1, want)
		}
	}
	if n := clk.Pending(); n != 0 {
		t.Errorf("%d timers pending once all-open, want 0 (the timer must stop)", n)
	}
}

// TestSupplierSessionSuspendsTimer: a session stops the pending idle
// timeout; EndSession re-arms it.
func TestSupplierSessionSuspendsTimer(t *testing.T) {
	clk := clock.NewVirtual()
	sup, err := NewSupplier(1, 4, dac.DAC, clk, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.StartSession(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	if got := sup.LowestFavored(); got != 1 {
		t.Errorf("vector elevated during a session: LowestFavored = %d", got)
	}
	if err := sup.EndSession(); err != nil {
		t.Fatal(err)
	}
	// No reminders and no favored request: end-of-session elevates once,
	// then idle timeouts (re-armed) elevate the rest.
	clk.Advance(time.Minute)
	if got := sup.LowestFavored(); got != 4 {
		t.Errorf("LowestFavored = %d, want 4", got)
	}
	probes, sessions, reminders := sup.Stats()
	if probes != 0 || sessions != 1 || reminders != 0 {
		t.Errorf("stats = (%d, %d, %d), want (0, 1, 0)", probes, sessions, reminders)
	}
}

// TestSupplierBusyReminderTighten: a favored-class reminder during a
// session tightens the vector at end of session (Section 4.1(c)).
func TestSupplierBusyReminderTighten(t *testing.T) {
	clk := clock.NewVirtual()
	sup, err := NewSupplier(1, 4, dac.DAC, clk, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.StartSession(); err != nil {
		t.Fatal(err)
	}
	dec, favors := sup.HandleProbe(1, 0)
	if dec != dac.DeniedBusy || !favors {
		t.Fatalf("busy probe = (%v, %v)", dec, favors)
	}
	if !sup.LeaveReminder(1) {
		t.Fatal("favored reminder not kept")
	}
	if sup.LeaveReminder(4) {
		t.Error("unfavored reminder kept")
	}
	if err := sup.EndSession(); err != nil {
		t.Fatal(err)
	}
	_, _, reminders := sup.Stats()
	if reminders != 1 {
		t.Errorf("reminders = %d, want 1", reminders)
	}
}

// TestSupplierNDACNeverArms: the baseline never schedules idle timeouts
// and ignores reminders.
func TestSupplierNDACNeverArms(t *testing.T) {
	clk := clock.NewVirtual()
	sup, err := NewSupplier(2, 4, dac.NDAC, clk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := clk.Pending(); n != 0 {
		t.Errorf("NDAC supplier scheduled %d timers", n)
	}
	dec, favors := sup.HandleProbe(4, 0)
	if dec != dac.Granted || !favors {
		t.Errorf("NDAC probe = (%v, %v), want granted to everyone", dec, favors)
	}
	sup.Close()
}

// TestSupplierCloseStopsTimer: Close cancels the pending elevation.
func TestSupplierCloseStopsTimer(t *testing.T) {
	clk := clock.NewVirtual()
	sup, err := NewSupplier(1, 4, dac.DAC, clk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sup.Close()
	clk.Advance(time.Minute)
	if got := sup.LowestFavored(); got != 1 {
		t.Errorf("closed supplier elevated to %d", got)
	}
}

// TestSlotsBudget: the shared outbound session budget clamps its capacity
// to one, counts acquisitions, and never goes negative.
func TestSlotsBudget(t *testing.T) {
	s := NewSlots(0)
	if s.Cap() != 1 {
		t.Fatalf("Cap() = %d, want clamp to 1", s.Cap())
	}
	s = NewSlots(2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("budget of 2 refused its first two acquisitions")
	}
	if s.Available() || s.TryAcquire() {
		t.Fatal("exhausted budget still granting")
	}
	if got := s.Used(); got != 2 {
		t.Fatalf("Used() = %d, want 2", got)
	}
	s.Release()
	if !s.Available() || s.Used() != 1 {
		t.Fatal("release did not free a slot")
	}
	s.Release()
	s.Release() // extra release must not underflow into phantom capacity
	if s.Used() != 0 {
		t.Fatalf("Used() = %d after draining, want 0", s.Used())
	}
	if !s.TryAcquire() || !s.TryAcquire() || s.TryAcquire() {
		t.Fatal("capacity changed after an over-release")
	}
}

// TestSupplierSharedSlots: two per-object suppliers of one node share one
// slot. While object A's session holds it, object B's idle stream answers
// probes DeniedBusy without touching its own dac state — and B's
// admissions resume the instant A's session ends.
func TestSupplierSharedSlots(t *testing.T) {
	clk := clock.NewVirtual()
	slots := NewSlots(1)
	newSup := func() *Supplier {
		sup, err := NewSupplier(1, 4, dac.DAC, clk, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		sup.SetSlots(slots)
		return sup
	}
	supA, supB := newSup(), newSup()
	if err := supA.StartSession(); err != nil {
		t.Fatal(err)
	}
	if err := supB.StartSession(); !errors.Is(err, ErrSlotsExhausted) {
		t.Fatalf("object B past the shared budget: StartSession = %v, want ErrSlotsExhausted", err)
	}
	dec, favors := supB.HandleProbe(1, 0)
	if dec != dac.DeniedBusy || !favors {
		t.Fatalf("idle stream with no free slot probed = (%v, %v), want (DeniedBusy, true)", dec, favors)
	}
	if supB.Busy() {
		t.Fatal("slot-starved probe marked object B's stream busy")
	}
	if err := supA.EndSession(); err != nil {
		t.Fatal(err)
	}
	if dec, _ := supB.HandleProbe(1, 0); dec != dac.Granted {
		t.Fatalf("probe after the slot freed = %v, want Granted", dec)
	}
	if err := supB.StartSession(); err != nil {
		t.Fatalf("object B cannot start after the slot freed: %v", err)
	}
	if err := supB.EndSession(); err != nil {
		t.Fatal(err)
	}
	supA.Close()
	supB.Close()
}

// scriptedSweep drives att to the end of its sweep with answers drawn from
// rng, and returns what the sweep concluded (copies: the Attempt owns its
// result slices).
func scriptedSweep(att *Attempt, rng *rand.Rand) (admitted bool, chosen, targets []int) {
	for {
		idx, ok := att.Next()
		if !ok {
			break
		}
		switch rng.Intn(4) {
		case 0:
			att.Down(idx)
		case 1:
			att.Record(idx, dac.DeniedBusy, rng.Intn(2) == 0)
		case 2:
			att.Record(idx, dac.DeniedProbability, false)
		default:
			att.Record(idx, dac.Granted, true)
		}
	}
	return att.Admitted(), append([]int(nil), att.Chosen()...), append([]int(nil), att.ReminderTargets()...)
}

// TestAttemptResetMatchesFresh: one Attempt reused over many sweeps of
// varying width — its buffers grow, shrink and carry stale entries — must
// conclude exactly what a fresh Attempt concludes from the same answers.
func TestAttemptResetMatchesFresh(t *testing.T) {
	sizes := rand.New(rand.NewSource(7))
	var reused Attempt
	for round := 0; round < 2000; round++ {
		classes := make([]bandwidth.Class, sizes.Intn(12))
		for i := range classes {
			classes[i] = bandwidth.Class(1 + sizes.Intn(4))
		}
		reused.Reset(classes)
		gotAdm, gotChosen, gotTargets := scriptedSweep(&reused, rand.New(rand.NewSource(int64(round))))
		wantAdm, wantChosen, wantTargets := scriptedSweep(NewAttempt(classes), rand.New(rand.NewSource(int64(round))))
		if gotAdm != wantAdm || !slices.Equal(gotChosen, wantChosen) || !slices.Equal(gotTargets, wantTargets) {
			t.Fatalf("round %d, classes %v: reused attempt concluded (%v, %v, %v), fresh one (%v, %v, %v)",
				round, classes, gotAdm, gotChosen, gotTargets, wantAdm, wantChosen, wantTargets)
		}
	}
}

func TestProbeOrder(t *testing.T) {
	classes := []bandwidth.Class{3, 1, 4, 1, 2}
	got := probeOrder(nil, classes)
	want := []int{1, 3, 4, 0, 2} // both class-1 peers first (stable), then 2, 3, 4
	if !slices.Equal(got, want) {
		t.Errorf("probeOrder = %v, want %v", got, want)
	}
	if got := probeOrder(nil, nil); len(got) != 0 {
		t.Errorf("probeOrder(nil, nil) = %v", got)
	}
}

// maxSweepTable bounds an answer table: bandwidth.ExactSubsetExists, the
// exhaustive reference, takes at most 24 offers.
const maxSweepTable = 24

// checkSweep drives an Attempt over an answer table, one candidate a byte b
// (the first maxSweepTable are read): class 1 + b%5, and from a = b/5 the
// answer — a%4 is Granted, DeniedBusy, DeniedProbability or, at 3, down —
// and whether the candidate favors the requester, a/4 odd. It checks the
// Attempt against Section 4.2's rule written out over every answer: a
// stable sort high class first, then one greedy pass over the grants and
// one over the busy favoring candidates, each skipping an offer that would
// overshoot R0 and stopping at exactly R0. It returns the finished Attempt.
func checkSweep(t *testing.T, table []byte) *Attempt {
	t.Helper()
	table = table[:min(len(table), maxSweepTable)]
	classes := make([]bandwidth.Class, len(table))
	for i, b := range table {
		classes[i] = bandwidth.Class(1 + b%5)
	}
	answer := func(i int) (dec dac.Decision, down, favors bool) {
		a := table[i] / 5
		return dac.Decision(a % 4), a%4 == 3, a/4%2 == 1
	}

	order := make([]int, len(table))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return int(classes[x] - classes[y]) })
	scan := func(want dac.Decision, favoring bool) (picked []int, sum bandwidth.Fraction) {
		for _, i := range order {
			if dec, down, favors := answer(i); down || dec != want || (favoring && !favors) {
				continue
			}
			offer := classes[i].Offer()
			if sum+offer > bandwidth.R0 {
				continue
			}
			sum += offer
			picked = append(picked, i)
			if sum == bandwidth.R0 {
				break
			}
		}
		return picked, sum
	}
	wantChosen, granted := scan(dac.Granted, false)
	wantTargets, _ := scan(dac.DeniedBusy, true)
	var grants []bandwidth.Fraction
	for i, c := range classes {
		if dec, down, _ := answer(i); !down && dec == dac.Granted {
			grants = append(grants, c.Offer())
		}
	}

	att := NewAttempt(classes)
	var probed []int
	for {
		idx, ok := att.Next()
		if !ok {
			break
		}
		probed = append(probed, idx)
		if dec, down, favors := answer(idx); down {
			att.Down(idx)
		} else {
			att.Record(idx, dec, favors)
		}
	}
	if !slices.Equal(probed, order[:len(probed)]) {
		t.Fatalf("table %v: probed %v, want a prefix of %v", table, probed, order)
	}
	if want := granted == bandwidth.R0; att.Admitted() != want {
		t.Fatalf("table %v: admitted %v, reference scan reached %v", table, att.Admitted(), granted)
	}
	if exists := bandwidth.ExactSubsetExists(grants, bandwidth.R0); att.Admitted() != exists {
		t.Fatalf("table %v: admitted %v, but an exact-R0 subset of the grants exists: %v", table, att.Admitted(), exists)
	}
	if att.Admitted() && !slices.Equal(att.Chosen(), wantChosen) {
		t.Fatalf("table %v: chosen %v, reference %v", table, att.Chosen(), wantChosen)
	}
	if !att.Admitted() && !slices.Equal(att.ReminderTargets(), wantTargets) {
		t.Fatalf("table %v: reminder targets %v, reference %v", table, att.ReminderTargets(), wantTargets)
	}
	return att
}

// TestAttemptMatchesReferenceScan runs checkSweep over random answer tables
// of every width up to maxSweepTable, and checks that they exercised both
// an admission and a rejection that leaves reminders.
func TestAttemptMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	admitted, reminded := 0, 0
	for round := 0; round < 5000; round++ {
		table := make([]byte, rng.Intn(maxSweepTable+1))
		rng.Read(table)
		att := checkSweep(t, table)
		switch {
		case att.Admitted():
			admitted++
		case len(att.ReminderTargets()) > 0:
			reminded++
		}
	}
	if admitted < 500 || reminded < 500 {
		t.Errorf("%d admissions and %d reminded rejections in 5000 tables, want 500 of each", admitted, reminded)
	}
}

// FuzzAttemptSweep is checkSweep over answer tables read from the fuzz
// bytes.
func FuzzAttemptSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 2})                       // classes 1, 2, 3, 3 granted: exactly R0
	f.Add([]byte{5, 25, 5, 5, 25, 5})               // class-1 busy, favoring and not
	f.Add([]byte{15, 0, 16, 11, 2, 21, 27, 40, 44}) // down, granted and denied mixed
	f.Fuzz(func(t *testing.T, table []byte) { checkSweep(t, table) })
}

// sweepOp returns one reused-Attempt admission over M = 8 candidates: the
// first sweep meets only busy suppliers and ends in reminder targeting, the
// second is granted through to admission.
func sweepOp(tb testing.TB) func() {
	classes := []bandwidth.Class{3, 1, 2, 3, 1, 2, 3, 3}
	var att Attempt
	run := func(dec dac.Decision) {
		att.Reset(classes)
		for {
			idx, ok := att.Next()
			if !ok {
				return
			}
			att.Record(idx, dec, true)
		}
	}
	return func() {
		run(dac.DeniedBusy)
		if att.Admitted() || len(att.ReminderTargets()) != 2 {
			tb.Fatalf("busy sweep: admitted %v, reminder targets %v", att.Admitted(), att.ReminderTargets())
		}
		run(dac.Granted)
		if !att.Admitted() || len(att.Chosen()) != 2 {
			tb.Fatalf("granted sweep: admitted %v, chosen %v", att.Admitted(), att.Chosen())
		}
	}
}

func BenchmarkAttemptSweep(b *testing.B) {
	op := sweepOp(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}
