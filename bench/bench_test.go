package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// Run with `go -C bench test .` (bench/ is a module of its own, so the
// repository's `go test ./...` does not descend into it).

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecAgrees holds BENCHMARK.json and the harness to one set of names
// and units, and the bounds to the contract's limits.
func TestSpecAgrees(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why == "" || !nameRE.MatchString(got.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the harness %q", i, got.Name, got.Why, w.name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s, lower", spec.EndToEnd[0])
	}
}

// TestQuickPass runs every workload at smoke-test size, untraced and
// traced, and wants every named metric emitted and finite, nothing failed,
// and no end-to-end metric at zero.
func TestQuickPass(t *testing.T) {
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			res, err := measure(w.name, 1, 0.5, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v (present %v)", w.name, traced, d.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
		}
	}
}

// TestHostCorrection: a stretch run while the probe read twice the calm
// latency counts as half as slow as it measured, a quarter at exponent 2.
func TestHostCorrection(t *testing.T) {
	slow := []stretch{{wall: time.Second, cpu: time.Second, ops: 1000, lat: 4, chaseNS: 2 * chaseRefNS}}
	m := summarise(slow, 1)
	if m.rawThroughput != 1000 || m.throughput != 2000 || m.latMS != 2 || m.cpuUS != 500 || m.rawCPUUS != 1000 {
		t.Errorf("summarise(exponent 1) = %+v", m)
	}
	if m := summarise(slow, 2); m.throughput != 4000 || m.latMS != 1 || m.cpuUS != 250 {
		t.Errorf("summarise(exponent 2) = %+v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v, want 3.5, 13.5, 31", q1, q2, q3)
	}
}
