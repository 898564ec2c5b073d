package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesAddAndAt(t *testing.T) {
	var s Series
	s.Add(0, 1)
	s.Add(time.Hour, 2)
	s.Add(2*time.Hour, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	tests := []struct {
		at   time.Duration
		want float64
		ok   bool
	}{
		{-time.Second, 0, false},
		{0, 1, true},
		{30 * time.Minute, 1, true},
		{time.Hour, 2, true},
		{3 * time.Hour, 3, true},
	}
	for _, tt := range tests {
		got, ok := s.At(tt.at)
		if ok != tt.ok || got != tt.want {
			t.Errorf("At(%v) = %g,%v want %g,%v", tt.at, got, ok, tt.want, tt.ok)
		}
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add should panic")
		}
	}()
	var s Series
	s.Add(time.Hour, 1)
	s.Add(0, 2)
}

func TestSeriesMissing(t *testing.T) {
	var s Series
	s.AddMissing(0)
	s.Add(time.Hour, 5)
	s.AddMissing(2 * time.Hour)
	if !s.Missing(0) || s.Missing(1) || !s.Missing(2) {
		t.Error("Missing flags wrong")
	}
	if v, ok := s.At(0); ok || v != 0 {
		t.Error("At over missing-only prefix should report not ok")
	}
	if v, ok := s.At(3 * time.Hour); !ok || v != 5 {
		t.Errorf("At should skip trailing missing samples, got %g,%v", v, ok)
	}
	if v, ok := s.Last(); !ok || v != 5 {
		t.Errorf("Last = %g,%v", v, ok)
	}
	if v, ok := s.Min(); !ok || v != 5 {
		t.Errorf("Min = %g,%v", v, ok)
	}
	if v, ok := s.Max(); !ok || v != 5 {
		t.Errorf("Max = %g,%v", v, ok)
	}
}

func TestSeriesEmptyAggregates(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Error("Last on empty should be not-ok")
	}
	if _, ok := s.Min(); ok {
		t.Error("Min on empty should be not-ok")
	}
	s.AddMissing(0)
	if _, ok := s.Max(); ok {
		t.Error("Max on all-missing should be not-ok")
	}
}

func TestSeriesMinMax(t *testing.T) {
	var s Series
	for i, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(time.Duration(i)*time.Hour, v)
	}
	if v, _ := s.Min(); v != 1 {
		t.Errorf("Min = %g", v)
	}
	if v, _ := s.Max(); v != 5 {
		t.Errorf("Max = %g", v)
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(0, 1)
	a.AddMissing(time.Hour)
	b.Add(0, 10)
	b.Add(time.Hour, 20)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "hours,a,b\n0.000,1.0000,10.0000\n1.000,,20.0000\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// TestWriteCSVIn: the caller-chosen time column scales millisecond-range
// scenario samples that the hour column would flatten to zero.
func TestWriteCSVIn(t *testing.T) {
	a := &Series{Name: "lat"}
	a.Add(1500*time.Microsecond, 3)
	a.Add(2*time.Second, 4)
	var sb strings.Builder
	if err := WriteCSVIn(&sb, "ms", time.Millisecond, a); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "ms,lat\n1.500,3.0000\n2000.000,4.0000\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if err := WriteCSVIn(&sb, "x", 0, a); err == nil {
		t.Error("non-positive unit should fail")
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb); err == nil {
		t.Error("no series should fail")
	}
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(0, 1)
	if err := WriteCSV(&sb, a, b); err == nil {
		t.Error("length mismatch should fail")
	}
	b.Add(time.Hour, 1)
	if err := WriteCSV(&sb, a, b); err == nil {
		t.Error("time mismatch should fail")
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	a := &Series{Name: "dac"}
	b := &Series{Name: "ndac"}
	for h := 0; h <= 10; h++ {
		a.Add(time.Duration(h)*time.Hour, float64(h*h))
		b.Add(time.Duration(h)*time.Hour, float64(h))
	}
	out := Chart("capacity", 40, 10, a, b)
	if !strings.Contains(out, "capacity") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "dac") || !strings.Contains(out, "ndac") {
		t.Error("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("missing series markers")
	}
	if !strings.Contains(out, "10h") {
		t.Error("missing time axis label")
	}
}

func TestChartDegenerate(t *testing.T) {
	// Empty series, constant series, tiny dimensions: must not panic.
	empty := &Series{Name: "empty"}
	constant := &Series{Name: "const"}
	constant.Add(0, 5)
	constant.Add(time.Hour, 5)
	for _, s := range []*Series{empty, constant} {
		if out := Chart("t", 1, 1, s); out == "" {
			t.Error("chart should render something")
		}
	}
	var missing Series
	missing.AddMissing(0)
	if out := Chart("t", 30, 8, &missing); out == "" {
		t.Error("all-missing series should render")
	}
}
