package dac

import (
	"math/rand"
	"reflect"
	"testing"

	"p2pstream/internal/bandwidth"
)

func TestNewVectorPaperExample(t *testing.T) {
	// Paper Section 4.1(a): a class-2 supplier with K=4 starts with
	// [1.0, 1.0, 0.5, 0.25] and favored classes {1, 2}.
	v, err := NewVector(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{1.0, 1.0, 0.5, 0.25}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("NewVector(2,4) = %v, want %v", v, want)
	}
	if !v.Favors(1) || !v.Favors(2) {
		t.Error("classes 1 and 2 should be favored")
	}
	if v.Favors(3) || v.Favors(4) {
		t.Error("classes 3 and 4 should not be favored")
	}
	if got := v.LowestFavored(); got != 2 {
		t.Errorf("LowestFavored = %d, want 2", got)
	}
}

func TestNewVectorAllClasses(t *testing.T) {
	for own := bandwidth.Class(1); own <= 4; own++ {
		v, err := NewVector(own, 4)
		if err != nil {
			t.Fatalf("own=%d: %v", own, err)
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("own=%d: %v", own, err)
		}
		for j := bandwidth.Class(1); j <= 4; j++ {
			want := 1.0
			if j > own {
				want = 1.0 / float64(int64(1)<<uint(j-own))
			}
			if got := v.Prob(j); got != want {
				t.Errorf("own=%d Prob(%d) = %g, want %g", own, j, got, want)
			}
		}
		if got := v.LowestFavored(); got != own {
			t.Errorf("own=%d LowestFavored = %d", own, got)
		}
	}
}

func TestNewVectorErrors(t *testing.T) {
	tests := []struct {
		own, k bandwidth.Class
	}{
		{0, 4}, {5, 4}, {-1, 4}, {1, 0}, {1, bandwidth.MaxClass + 1},
		{0, 0}, {bandwidth.MaxClass + 1, bandwidth.MaxClass + 1},
	}
	for _, tt := range tests {
		if _, err := NewVector(tt.own, tt.k); err == nil {
			t.Errorf("NewVector(%d,%d) should fail", tt.own, tt.k)
		}
	}
}

// TestNewOpenVector checks the all-ones vector of every NDAC_p2p supplier
// (and of a DAC_p2p supplier after enough relaxation): a class-K vector.
func TestNewOpenVector(t *testing.T) {
	v, err := NewVector(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !v.AllOpen() {
		t.Error("open vector should be AllOpen")
	}
	if got := v.LowestFavored(); got != 4 {
		t.Errorf("LowestFavored = %d, want 4", got)
	}
	if err := v.Validate(); err != nil {
		t.Error(err)
	}
}

func TestProbOutOfRange(t *testing.T) {
	v, _ := NewVector(1, 4)
	if got := v.Prob(0); got != 0 {
		t.Errorf("Prob(0) = %g, want 0", got)
	}
	if got := v.Prob(5); got != 0 {
		t.Errorf("Prob(5) = %g, want 0", got)
	}
	if v.Favors(0) || v.Favors(9) {
		t.Error("out-of-range classes must not be favored")
	}
}

func TestElevate(t *testing.T) {
	v, _ := NewVector(1, 4) // [1, 0.5, 0.25, 0.125]
	if !v.Elevate() {
		t.Error("first Elevate should change the vector")
	}
	want := Vector{1, 1, 0.5, 0.25}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("after 1 elevate: %v, want %v", v, want)
	}
	v.Elevate()
	v.Elevate()
	if !v.AllOpen() {
		t.Fatalf("after 3 elevates: %v, want all-open", v)
	}
	if v.Elevate() {
		t.Error("Elevate on all-open vector should report no change")
	}
}

func TestElevateCapsAtOne(t *testing.T) {
	v := Vector{1.0, 0.75}
	v.Elevate()
	if v[1] != 1.0 {
		t.Errorf("0.75 doubled should cap at 1.0, got %g", v[1])
	}
}

func TestTighten(t *testing.T) {
	v, _ := NewVector(4, 4)
	if err := v.Tighten(2); err != nil {
		t.Fatal(err)
	}
	want := Vector{1.0, 1.0, 0.5, 0.25}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("Tighten(2) = %v, want %v", v, want)
	}
	if err := v.Tighten(1); err != nil {
		t.Fatal(err)
	}
	want = Vector{1.0, 0.5, 0.25, 0.125}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("Tighten(1) = %v, want %v", v, want)
	}
	if err := v.Tighten(4); err != nil {
		t.Fatal(err)
	}
	if !v.AllOpen() {
		t.Error("Tighten(K) should open every class")
	}
}

func TestTightenErrors(t *testing.T) {
	v, _ := NewVector(4, 4)
	for _, anchor := range []bandwidth.Class{0, 5, -1} {
		if err := v.Tighten(anchor); err == nil {
			t.Errorf("Tighten(%d) should fail", anchor)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		v       Vector
		wantErr bool
	}{
		{"initial", Vector{1, 1, 0.5, 0.25}, false},
		{"all open", Vector{1, 1, 1}, false},
		{"empty", Vector{}, true},
		{"class1 not favored", Vector{0.5, 0.25}, true},
		{"zero probability", Vector{1, 0}, true},
		{"negative", Vector{1, -0.5}, true},
		{"above one", Vector{1, 1.5}, true},
		{"increasing", Vector{1, 0.25, 0.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.v.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate(%v) error = %v, wantErr %v", tt.v, err, tt.wantErr)
			}
		})
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v, _ := NewVector(2, 4)
	c := v.Clone()
	c.Elevate()
	if reflect.DeepEqual(v, c) {
		t.Error("mutating the clone changed the original")
	}
}

// TestVectorInvariantsUnderRandomOps: any interleaving of Elevate and
// Tighten keeps the vector well-formed.
func TestVectorInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k := bandwidth.Class(1 + rng.Intn(6))
		own := bandwidth.Class(1 + rng.Intn(int(k)))
		v, err := NewVector(own, k)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 50; op++ {
			if rng.Intn(2) == 0 {
				v.Elevate()
			} else {
				anchor := bandwidth.Class(1 + rng.Intn(int(k)))
				if err := v.Tighten(anchor); err != nil {
					t.Fatal(err)
				}
				if got := v.LowestFavored(); got != anchor {
					t.Fatalf("after Tighten(%d): LowestFavored = %d", anchor, got)
				}
			}
			if err := v.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v (vector %v)", trial, op, err, v)
			}
		}
	}
}

func TestLowestFavoredEmptyVector(t *testing.T) {
	var v Vector
	if got := v.LowestFavored(); got != 0 {
		t.Errorf("LowestFavored on empty = %d, want 0", got)
	}
	if v.AllOpen() {
		t.Error("empty vector must not be AllOpen")
	}
}
