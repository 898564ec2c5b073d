package bandwidth

import (
	"math/rand"
	"testing"
)

func TestClassOffer(t *testing.T) {
	tests := []struct {
		class Class
		want  Fraction
	}{
		{1, R0 / 2},
		{2, R0 / 4},
		{3, R0 / 8},
		{4, R0 / 16},
		{10, R0 / 1024},
		{MaxClass, 1},
	}
	for _, tt := range tests {
		if got := tt.class.Offer(); got != tt.want {
			t.Errorf("class %d Offer() = %v, want %v", tt.class, got, tt.want)
		}
	}
}

func TestClassOfferPanicsOutOfRange(t *testing.T) {
	for _, c := range []Class{0, -1, MaxClass + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("class %d Offer() did not panic", c)
				}
			}()
			c.Offer()
		}()
	}
}

func TestClassValid(t *testing.T) {
	tests := []struct {
		c, max Class
		want   bool
	}{
		{1, 4, true},
		{4, 4, true},
		{5, 4, false},
		{0, 4, false},
		{-3, 4, false},
		{1, MaxClass + 1, false}, // maxClass itself out of range
		{MaxClass, MaxClass, true},
	}
	for _, tt := range tests {
		if got := tt.c.Valid(tt.max); got != tt.want {
			t.Errorf("Class(%d).Valid(%d) = %v, want %v", tt.c, tt.max, got, tt.want)
		}
	}
}

func TestSumAndSumOffers(t *testing.T) {
	if got := Sum(); got != 0 {
		t.Errorf("Sum() = %v, want 0", got)
	}
	if got := Sum(R0/2, R0/4, R0/8, R0/8); got != R0 {
		t.Errorf("Sum of 1/2+1/4+1/8+1/8 = %v, want R0", got)
	}
	if got := SumOffers([]Class{1, 2, 3, 3}); got != R0 {
		t.Errorf("SumOffers(1,2,3,3) = %v, want R0", got)
	}
	if got := SumOffers(nil); got != 0 {
		t.Errorf("SumOffers(nil) = %v, want 0", got)
	}
}

func TestSessions(t *testing.T) {
	tests := []struct {
		f    Fraction
		want int
	}{
		{0, 0},
		{-5, 0},
		{R0 - 1, 0},
		{R0, 1},
		{R0 + R0/2, 1}, // the paper's Figure 3 scenario: 2*1/2 + 2*1/4 = 1.5
		{3 * R0, 3},
	}
	for _, tt := range tests {
		if got := Sessions(tt.f); got != tt.want {
			t.Errorf("Sessions(%v) = %d, want %d", tt.f, got, tt.want)
		}
	}
}

func TestFigure3Capacity(t *testing.T) {
	// Paper Section 4: two class-2 peers and two class-1 peers give
	// capacity floor(1/4+1/4+1/2+1/2) = 1.
	agg := SumOffers([]Class{2, 2, 1, 1})
	if got := Sessions(agg); got != 1 {
		t.Errorf("Figure 3 initial capacity = %d, want 1", got)
	}
	// After admitting the class-1 requester it supplies R0/2 more.
	if got := Sessions(agg + Class(1).Offer()); got != 2 {
		t.Errorf("Figure 3 capacity after admitting class-1 = %d, want 2", got)
	}
	// Admitting a class-2 requester instead leaves capacity at 1.
	if got := Sessions(agg + Class(2).Offer()); got != 1 {
		t.Errorf("Figure 3 capacity after admitting class-2 = %d, want 1", got)
	}
}

func TestExactSubsetExistsSmall(t *testing.T) {
	tests := []struct {
		offers []Fraction
		target Fraction
		want   bool
	}{
		{nil, 0, true},
		{nil, R0, false},
		{[]Fraction{R0 / 2, R0 / 2}, R0, true},
		{[]Fraction{R0 / 2, R0 / 4}, R0, false},
		{[]Fraction{R0 / 4, R0 / 4, R0 / 4, R0 / 4, R0 / 2}, R0, true},
	}
	for _, tt := range tests {
		if got := ExactSubsetExists(tt.offers, tt.target); got != tt.want {
			t.Errorf("ExactSubsetExists(%v, %v) = %v, want %v", tt.offers, tt.target, got, tt.want)
		}
	}
}

func TestDistributionValidate(t *testing.T) {
	tests := []struct {
		name    string
		d       Distribution
		wantErr bool
	}{
		{"paper distribution", Distribution{0.1, 0.1, 0.4, 0.4}, false},
		{"single class", Distribution{1.0}, false},
		{"empty", Distribution{}, true},
		{"negative share", Distribution{-0.5, 1.5}, true},
		{"sums above one", Distribution{0.6, 0.6}, true},
		{"sums below one", Distribution{0.2, 0.2}, true},
		{"too many classes", make(Distribution, MaxClass+1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.d.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDistributionPick(t *testing.T) {
	d := Distribution{0.1, 0.1, 0.4, 0.4}
	tests := []struct {
		u    float64
		want Class
	}{
		{0.0, 1},
		{0.05, 1},
		{0.1, 2},
		{0.19, 2},
		{0.2, 3},
		{0.59, 3},
		{0.61, 4}, // 0.6 itself sits on a float rounding boundary

		{0.999999, 4},
	}
	for _, tt := range tests {
		if got := d.Pick(tt.u); got != tt.want {
			t.Errorf("Pick(%g) = %d, want %d", tt.u, got, tt.want)
		}
	}
}

func TestDistributionPickFrequencies(t *testing.T) {
	d := Distribution{0.1, 0.1, 0.4, 0.4}
	rng := rand.New(rand.NewSource(7))
	counts := make(map[Class]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Pick(rng.Float64())]++
	}
	for i, share := range d {
		got := float64(counts[Class(i+1)]) / n
		if diff := got - share; diff > 0.01 || diff < -0.01 {
			t.Errorf("class %d frequency %.3f, want ~%.3f", i+1, got, share)
		}
	}
}

func TestFractionString(t *testing.T) {
	if got := (R0 / 2).String(); got != "0.5*R0" {
		t.Errorf("String = %q", got)
	}
	if got := Class(3).String(); got != "class-3" {
		t.Errorf("Class.String = %q", got)
	}
}
