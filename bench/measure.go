package main

import (
	"errors"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user+system CPU time the process has consumed so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM of
// /proc/self/status. ru_maxrss will not do: Linux carries it across
// fork+exec, so a small process reports its launcher's peak instead of its
// own.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the rule the benchmark's contract
// measures spread by); one sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// inUnit converts duration samples to float64s of the given unit.
func inUnit(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// perOp times n calls of fn after n/10 warm-up calls and returns the mean
// nanoseconds and heap allocations per call — the layer probes' yardstick.
func perOp(n int, fn func()) (ns, allocs float64) {
	for i := 0; i < n/10+1; i++ {
		fn()
	}
	m0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	wall := time.Since(t0)
	return float64(wall.Nanoseconds()) / float64(n), float64(mallocs()-m0) / float64(n)
}
