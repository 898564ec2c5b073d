package dac

import (
	"math"
	"math/big"
	"testing"
	"time"
)

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
