// Package metrics provides the measurement plumbing for the evaluation:
// time series sampled on the simulator clock, summary distributions, CSV
// emission, and a small ASCII chart renderer so experiment binaries can show
// every figure's shape directly in a terminal.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Series is a time-ordered sequence of (time, value) samples.
type Series struct {
	Name    string
	Times   []time.Duration
	Values  []float64
	missing []bool
}

// Add appends a sample. Samples must be appended in non-decreasing time
// order; Add panics otherwise (it indicates a simulator bug).
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: sample at %v after %v", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
	s.missing = append(s.missing, false)
}

// AddMissing appends a placeholder for a time where the metric was
// undefined (e.g. an average over an empty population). Missing samples are
// skipped by Min/Max/At and rendered as blanks in CSV.
func (s *Series) AddMissing(t time.Duration) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("metrics: sample at %v after %v", t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, math.NaN())
	s.missing = append(s.missing, true)
}

// Grow makes room for n more samples, so that many Add and AddMissing
// calls allocate nothing.
func (s *Series) Grow(n int) {
	s.Times = slices.Grow(s.Times, n)
	s.Values = slices.Grow(s.Values, n)
	s.missing = slices.Grow(s.missing, n)
}

// Len returns the number of samples (including missing placeholders).
func (s *Series) Len() int { return len(s.Times) }

// Missing reports whether sample i is a placeholder.
func (s *Series) Missing(i int) bool { return s.missing[i] }

// At returns the last defined value at or before t, and false if there is
// none.
func (s *Series) At(t time.Duration) (float64, bool) {
	idx := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t }) - 1
	for ; idx >= 0; idx-- {
		if !s.missing[idx] {
			return s.Values[idx], true
		}
	}
	return 0, false
}

// Last returns the final defined value, and false if the series has none.
func (s *Series) Last() (float64, bool) {
	for i := len(s.Values) - 1; i >= 0; i-- {
		if !s.missing[i] {
			return s.Values[i], true
		}
	}
	return 0, false
}

// Min and Max return the smallest and largest defined values; ok is false
// for an all-missing series.
func (s *Series) Min() (float64, bool) { return s.extreme(func(a, b float64) bool { return a < b }) }

// Max returns the largest defined value.
func (s *Series) Max() (float64, bool) { return s.extreme(func(a, b float64) bool { return a > b }) }

func (s *Series) extreme(better func(a, b float64) bool) (float64, bool) {
	found := false
	var best float64
	for i, v := range s.Values {
		if s.missing[i] {
			continue
		}
		if !found || better(v, best) {
			best, found = v, true
		}
	}
	return best, found
}

// WriteCSV emits one or more series sharing a time axis as CSV with the
// time in hours in the first column. All series must have identical sample
// times; it returns an error otherwise.
func WriteCSV(w io.Writer, series ...*Series) error {
	return WriteCSVIn(w, "hours", time.Hour, series...)
}

// WriteCSVIn is WriteCSV with a caller-chosen time column: the first
// column is named col and holds each sample time divided by unit. The
// multi-hour simulator traces use hours; millisecond-scale scenario runs
// use milliseconds.
func WriteCSVIn(w io.Writer, col string, unit time.Duration, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("metrics: no series")
	}
	if unit <= 0 {
		return fmt.Errorf("metrics: non-positive time unit %v", unit)
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() != n {
			return fmt.Errorf("metrics: series %q has %d samples, want %d", s.Name, s.Len(), n)
		}
	}
	header := make([]string, 0, len(series)+1)
	header = append(header, col)
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%.3f", float64(series[0].Times[i])/float64(unit)))
		for _, s := range series {
			if s.Times[i] != series[0].Times[i] {
				return fmt.Errorf("metrics: series %q sample %d at %v, want %v", s.Name, i, s.Times[i], series[0].Times[i])
			}
			if s.missing[i] {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.4f", s.Values[i]))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
