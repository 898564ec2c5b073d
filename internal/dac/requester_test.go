package dac

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
)

func TestProbeOrder(t *testing.T) {
	classes := []bandwidth.Class{3, 1, 4, 1, 2}
	got := ProbeOrder(nil, classes)
	want := []int{1, 3, 4, 0, 2} // both class-1 peers first (stable), then 2, 3, 4
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ProbeOrder = %v, want %v", got, want)
	}
	if got := ProbeOrder(nil, nil); len(got) != 0 {
		t.Errorf("ProbeOrder(nil, nil) = %v", got)
	}
}

func outcome(idx int, c bandwidth.Class, d Decision, favors bool) ProbeOutcome {
	return ProbeOutcome{Index: idx, Class: c, Decision: d, FavorsUs: favors}
}

func TestSelectSuppliersExactSum(t *testing.T) {
	outcomes := []ProbeOutcome{
		outcome(0, 1, Granted, true),
		outcome(1, 2, Granted, true),
		outcome(2, 3, Granted, true),
		outcome(3, 3, Granted, true),
	}
	chosen, admitted := SelectSuppliers(outcomes)
	if !admitted {
		t.Fatal("should be admitted: 1/2+1/4+1/8+1/8 = R0")
	}
	if !reflect.DeepEqual(chosen, []int{0, 1, 2, 3}) {
		t.Errorf("chosen = %v", chosen)
	}
}

func TestSelectSuppliersSkipsOvershoot(t *testing.T) {
	// Grants: 1/2, 1/2, 1/2 — the third would overshoot and is skipped; the
	// first two reach exactly R0.
	outcomes := []ProbeOutcome{
		outcome(0, 1, Granted, true),
		outcome(1, 1, Granted, true),
		outcome(2, 1, Granted, true),
	}
	chosen, admitted := SelectSuppliers(outcomes)
	if !admitted || len(chosen) != 2 {
		t.Fatalf("chosen = %v admitted = %v, want first two", chosen, admitted)
	}
}

func TestSelectSuppliersIgnoresNonGrants(t *testing.T) {
	outcomes := []ProbeOutcome{
		outcome(0, 1, DeniedBusy, true),
		outcome(1, 1, Granted, true),
		outcome(2, 2, DeniedProbability, false),
		outcome(3, 2, Granted, true),
		outcome(4, 2, Granted, true),
	}
	chosen, admitted := SelectSuppliers(outcomes)
	if !admitted {
		t.Fatal("1/2 + 1/4 + 1/4 = R0: should be admitted")
	}
	want := []int{1, 3, 4}
	if !reflect.DeepEqual(chosen, want) {
		t.Errorf("chosen = %v, want %v", chosen, want)
	}
}

func TestSelectSuppliersInsufficient(t *testing.T) {
	outcomes := []ProbeOutcome{
		outcome(0, 2, Granted, true),
		outcome(1, 3, Granted, true),
	}
	chosen, admitted := SelectSuppliers(outcomes)
	if admitted || chosen != nil {
		t.Errorf("should be rejected, got chosen=%v admitted=%v", chosen, admitted)
	}
	if _, admitted := SelectSuppliers(nil); admitted {
		t.Error("no outcomes should reject")
	}
}

func TestSelectSuppliersHighClassFirst(t *testing.T) {
	// Out-of-order outcomes: selection must scan high class first, so with
	// grants 1/8, 1/2, 1/4, 1/8 all four are needed and order is by class.
	outcomes := []ProbeOutcome{
		outcome(0, 3, Granted, true),
		outcome(1, 1, Granted, true),
		outcome(2, 2, Granted, true),
		outcome(3, 3, Granted, true),
	}
	chosen, admitted := SelectSuppliers(outcomes)
	if !admitted {
		t.Fatal("should be admitted")
	}
	want := []int{1, 2, 0, 3}
	if !reflect.DeepEqual(chosen, want) {
		t.Errorf("chosen = %v, want %v", chosen, want)
	}
}

func TestReminderTargets(t *testing.T) {
	// Busy candidates favoring us accumulate to exactly R0; the non-favoring
	// one is skipped; idle candidates are not reminded.
	outcomes := []ProbeOutcome{
		outcome(0, 1, DeniedBusy, true),
		outcome(1, 1, DeniedBusy, false), // busy but does not favor us
		outcome(2, 1, DeniedBusy, true),
		outcome(3, 1, DeniedBusy, true), // would overshoot R0
		outcome(4, 2, DeniedProbability, true),
	}
	got := ReminderTargets(nil, outcomes)
	want := []int{0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReminderTargets = %v, want %v", got, want)
	}
}

func TestReminderTargetsPartialPrefix(t *testing.T) {
	// If the favoring busy candidates cannot reach R0, the accumulated
	// prefix is still reminded (documented substitution).
	outcomes := []ProbeOutcome{
		outcome(0, 3, DeniedBusy, true),
		outcome(1, 4, DeniedBusy, true),
	}
	got := ReminderTargets(nil, outcomes)
	want := []int{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReminderTargets = %v, want %v", got, want)
	}
	if got := ReminderTargets(nil, nil); got != nil {
		t.Errorf("ReminderTargets(nil, nil) = %v", got)
	}
}

func TestReminderTargetsHighClassFirst(t *testing.T) {
	outcomes := []ProbeOutcome{
		outcome(0, 4, DeniedBusy, true),
		outcome(1, 1, DeniedBusy, true),
		outcome(2, 1, DeniedBusy, true),
	}
	got := ReminderTargets(nil, outcomes)
	// 1/2 + 1/2 = R0: the two class-1 candidates, scanned first.
	want := []int{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReminderTargets = %v, want %v", got, want)
	}
}

func TestBackoffValidate(t *testing.T) {
	valid := BackoffConfig{Base: 10 * time.Minute, Factor: 2}
	if err := valid.Validate(); err != nil {
		t.Error(err)
	}
	for _, c := range []BackoffConfig{
		{Base: 0, Factor: 2},
		{Base: -time.Second, Factor: 2},
		{Base: time.Second, Factor: 0},
		{Base: time.Second, Factor: -1},
		{Base: time.Second, Factor: 2, Jitter: -0.1},
		{Base: time.Second, Factor: 2, Jitter: 1},
		{Base: time.Second, Factor: 2, Jitter: math.NaN()},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestBackoffAfter(t *testing.T) {
	// Paper Section 5.1: T_bkf = 10 min, E_bkf = 2 — after the i-th
	// rejection wait 10·2^(i-1) minutes.
	c := BackoffConfig{Base: 10 * time.Minute, Factor: 2}
	tests := []struct {
		rejections int
		want       time.Duration
	}{
		{1, 10 * time.Minute},
		{2, 20 * time.Minute},
		{3, 40 * time.Minute},
		{5, 160 * time.Minute},
	}
	for _, tt := range tests {
		got, err := c.After(tt.rejections)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("After(%d) = %v, want %v", tt.rejections, got, tt.want)
		}
	}
	if _, err := c.After(0); err == nil {
		t.Error("After(0) should fail")
	}
	if _, err := (BackoffConfig{}).After(1); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestBackoffConstantFactor(t *testing.T) {
	c := BackoffConfig{Base: 10 * time.Minute, Factor: 1}
	for i := 1; i <= 10; i++ {
		got, err := c.After(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != 10*time.Minute {
			t.Errorf("After(%d) = %v, want constant 10m", i, got)
		}
	}
}

func TestBackoffOverflowCapped(t *testing.T) {
	c := BackoffConfig{Base: time.Hour, Factor: 4}
	got, err := c.After(60)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > 7*24*time.Hour {
		t.Errorf("After(60) = %v, want capped positive", got)
	}
}

// TestBackoffLargeFactor: factors whose products overflow time.Duration
// reach the cap, never a wrapped value.
func TestBackoffLargeFactor(t *testing.T) {
	const week = 7 * 24 * time.Hour
	tests := []struct {
		name string
		c    BackoffConfig
		r    int
		want time.Duration
	}{
		// 3 s · 2^62 wraps to exactly 0 in int64.
		{"wraps to zero", BackoffConfig{Base: 3 * time.Second, Factor: 1 << 62}, 2, week},
		// 2^32 · (2^32+1) wraps to 2^32, the base again.
		{"wraps to the base", BackoffConfig{Base: 1 << 32, Factor: 1<<32 + 1}, 2, week},
		{"wraps under a cap", BackoffConfig{Base: 3 * time.Second, Factor: 1 << 62, Cap: time.Hour}, 3, time.Hour},
		{"first rejection", BackoffConfig{Base: 3 * time.Second, Factor: 1 << 62}, 1, 3 * time.Second},
		{"base past a week", BackoffConfig{Base: 2 * week, Factor: 1}, 5, week},
		{"constant, late", BackoffConfig{Base: time.Minute, Factor: 1}, 1_000_000, time.Minute},
	}
	for _, tt := range tests {
		got, err := tt.c.After(tt.r)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got != tt.want {
			t.Errorf("%s: After(%d) = %v, want %v", tt.name, tt.r, got, tt.want)
		}
	}
}

// FuzzBackoff checks After against min(Base·Factor^(r-1), cap) computed in
// math/big, that After never decreases as r grows, and that TotalWait is the
// sum of the Afters capped at one week, for every config Validate accepts.
// Jitter is part of the config space and changes none of it: want below
// never reads it, since only a live requester scales the waits it sleeps.
func FuzzBackoff(f *testing.F) {
	f.Add(int64(10*time.Minute), 2, int64(0), 0.0, uint16(5))
	f.Add(int64(3*time.Second), 1<<62, int64(0), 0.5, uint16(2))
	f.Add(int64(1<<32), 1<<32+1, int64(0), 0.0, uint16(2))
	f.Add(int64(time.Second), 1, int64(time.Hour), 0.999, uint16(9999))
	f.Add(int64(time.Minute), 3, int64(time.Hour), 0.25, uint16(40))
	f.Fuzz(func(t *testing.T, base int64, factor int, capNS int64, jitter float64, rn uint16) {
		c := BackoffConfig{Base: time.Duration(base), Factor: factor, Cap: time.Duration(capNS), Jitter: jitter}
		if c.Validate() != nil {
			t.Skip()
		}
		r := 1 + int(rn)%10_000
		const week = 7 * 24 * time.Hour
		limit := week
		if c.Cap > 0 && c.Cap < limit {
			limit = c.Cap
		}
		// Base·Factor^(r-1), multiplied out only until it passes the cap.
		want := big.NewInt(base)
		bigLimit, bigFactor := big.NewInt(int64(limit)), big.NewInt(int64(factor))
		for i := 1; i < r && want.Cmp(bigLimit) <= 0; i++ {
			want.Mul(want, bigFactor)
		}
		if want.Cmp(bigLimit) > 0 {
			want = bigLimit
		}
		got, err := c.After(r)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != want.Int64() {
			t.Fatalf("%+v: After(%d) = %v, want %v", c, r, got, time.Duration(want.Int64()))
		}
		next, err := c.After(r + 1)
		if err != nil {
			t.Fatal(err)
		}
		if next < got {
			t.Fatalf("%+v: After(%d) = %v after After(%d) = %v", c, r+1, next, r, got)
		}
		var sum time.Duration
		for i := 1; i <= r && sum < week; i++ {
			d, err := c.After(i)
			if err != nil {
				t.Fatal(err)
			}
			sum += d
		}
		total, err := c.TotalWait(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(sum, week); total != want {
			t.Fatalf("%+v: TotalWait(%d) = %v, want %v", c, r, total, want)
		}
	})
}

func TestBackoffTotalWait(t *testing.T) {
	c := BackoffConfig{Base: 10 * time.Minute, Factor: 2}
	got, err := c.TotalWait(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 70 * time.Minute; got != want { // 10+20+40
		t.Errorf("TotalWait(3) = %v, want %v", got, want)
	}
	got, err = c.TotalWait(0)
	if err != nil || got != 0 {
		t.Errorf("TotalWait(0) = %v, %v", got, err)
	}
	if _, err := c.TotalWait(-1); err == nil {
		t.Error("TotalWait(-1) should fail")
	}
	if _, err := (BackoffConfig{}).TotalWait(1); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestSelectSuppliersGreedyComplete: with class offers (binary fractions),
// the selection admits whenever ANY subset of the grants reaches exactly R0.
func TestSelectSuppliersGreedyComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(9)
		outcomes := make([]ProbeOutcome, n)
		offers := make([]bandwidth.Fraction, 0, n)
		for i := range outcomes {
			c := bandwidth.Class(1 + rng.Intn(5))
			d := Granted
			if rng.Intn(4) == 0 {
				d = DeniedBusy
			}
			outcomes[i] = outcome(i, c, d, true)
			if d == Granted {
				offers = append(offers, c.Offer())
			}
		}
		_, admitted := SelectSuppliers(outcomes)
		exists := bandwidth.ExactSubsetExists(offers, bandwidth.R0)
		if admitted != exists {
			t.Fatalf("trial %d: admitted=%v but exact subset exists=%v (outcomes %+v)", trial, admitted, exists, outcomes)
		}
	}
}

// TestChosenSuppliersSumExactly: whenever admitted, the chosen offers sum to
// exactly R0 (precondition of OTS_p2p).
func TestChosenSuppliersSumExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		outcomes := make([]ProbeOutcome, n)
		for i := range outcomes {
			outcomes[i] = outcome(i, bandwidth.Class(1+rng.Intn(5)), Granted, true)
		}
		chosen, admitted := SelectSuppliers(outcomes)
		if !admitted {
			continue
		}
		var sum bandwidth.Fraction
		for _, i := range chosen {
			sum += outcomes[i].Class.Offer()
		}
		if sum != bandwidth.R0 {
			t.Fatalf("trial %d: chosen sum %v != R0", trial, sum)
		}
	}
}

// byClassThenPosition is the reference order: a sort keyed on (class,
// position) needs no stability to be stable.
func byClassThenPosition(idx []int, class func(i int) bandwidth.Class) {
	sort.Slice(idx, func(a, b int) bool {
		if ca, cb := class(idx[a]), class(idx[b]); ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
}

// TestOrderingMatchesStableSort: the in-place sort behind ProbeOrder,
// SelectSuppliers and ReminderTargets must order high class first with ties
// in position order, and must leave a caller's prefix of dst alone.
// ProbeOrder's classes come from the whole int range around the legal one,
// so the sort may not assume a class is valid; the outcomes' stay in
// [1, MaxClass], where the greedy scans can take their offers.
func TestOrderingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 2000; round++ {
		classes := make([]bandwidth.Class, rng.Intn(40))
		outcomes := make([]ProbeOutcome, len(classes))
		for i := range classes {
			classes[i] = bandwidth.Class(-2 + rng.Intn(bandwidth.MaxClass+6))
			valid := bandwidth.Class(1 + rng.Intn(bandwidth.MaxClass))
			if rng.Intn(2) == 0 {
				valid = 1 + bandwidth.Class(rng.Intn(5)) // plenty of ties
			}
			outcomes[i] = outcome(i, valid, Decision(rng.Intn(3)), rng.Intn(3) > 0)
		}

		want := make([]int, len(classes))
		for i := range want {
			want[i] = i
		}
		byClassThenPosition(want, func(i int) bandwidth.Class { return classes[i] })
		got := ProbeOrder([]int{-7}, classes)
		if got[0] != -7 || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("classes %v: ProbeOrder = %v, stable sort gives %v", classes, got, want)
		}

		// The reference greedy scan over a filter in reference order.
		scan := func(keep func(ProbeOutcome) bool) (picked []int, sum bandwidth.Fraction) {
			var idx []int
			for i, o := range outcomes {
				if keep(o) {
					idx = append(idx, i)
				}
			}
			byClassThenPosition(idx, func(i int) bandwidth.Class { return outcomes[i].Class })
			for _, i := range idx {
				offer := outcomes[i].Class.Offer()
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
		wantTargets, _ := scan(func(o ProbeOutcome) bool { return o.Decision == DeniedBusy && o.FavorsUs })
		gotTargets := ReminderTargets([]int{-7}, outcomes)
		if gotTargets[0] != -7 || !reflect.DeepEqual(append([]int(nil), gotTargets[1:]...), append([]int(nil), wantTargets...)) {
			t.Fatalf("outcomes %v: ReminderTargets = %v, reference %v", outcomes, gotTargets, wantTargets)
		}
		wantChosen, sum := scan(func(o ProbeOutcome) bool { return o.Decision == Granted })
		gotChosen, admitted := SelectSuppliers(outcomes)
		if admitted != (sum == bandwidth.R0) || (admitted && !reflect.DeepEqual(gotChosen, wantChosen)) || (!admitted && gotChosen != nil) {
			t.Fatalf("outcomes %v: SelectSuppliers = %v, %v; reference %v (sum %v)", outcomes, gotChosen, admitted, wantChosen, sum)
		}
	}
}
