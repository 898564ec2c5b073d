package scenario

import (
	"bytes"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/metrics"
)

// runMegacrowd runs one population-scale spec and asserts the invariants
// shared by the whole family: the run checks clean, every requester was
// served, and the quantile trajectories cover the population with a sane
// shape (non-empty, shared axis, p99 dominating p50 at the end).
func runMegacrowd(t *testing.T, spec Spec, wallBudget time.Duration) *Report {
	t.Helper()
	// A population-scale run allocates a large live set (hosts, inboxes,
	// per-peer results) that steady-state pooling then keeps stable; a
	// relaxed GC target stops the collector from re-walking it every few
	// megabytes of transient garbage.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	start := time.Now()
	rep, err := Run(spec)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if got, want := rep.Served(), len(spec.Requesters); got != want {
		t.Fatalf("%s: served %d of %d requesters", spec.Name, got, want)
	}
	if got := rep.AdmissionDist.Count(); got != len(spec.Requesters) {
		t.Fatalf("%s: admission distribution holds %d samples, want %d",
			spec.Name, got, len(spec.Requesters))
	}
	if got := rep.RejectionDist.Count(); got != len(spec.Requesters) {
		t.Fatalf("%s: rejection distribution holds %d samples, want %d",
			spec.Name, got, len(spec.Requesters))
	}

	// Quantile trajectories: three series each (p50/p90/p99), one shared
	// axis, final checkpoint matching the full distribution.
	for _, group := range [][]any{
		{"admission", rep.AdmissionQuantiles, rep.AdmissionDist},
		{"rejection", rep.RejectionQuantiles, rep.RejectionDist},
	} {
		label := group[0].(string)
		series := group[1].([]*metrics.Series)
		if len(series) != 3 {
			t.Fatalf("%s: %d %s quantile series, want 3", spec.Name, len(series), label)
		}
		p50, p99 := series[0], series[2]
		if p50.Len() == 0 || p50.Len() > quantileCheckpoints+1 {
			t.Fatalf("%s: %s axis has %d checkpoints, want 1..%d",
				spec.Name, label, p50.Len(), quantileCheckpoints+1)
		}
		if p50.Len() != p99.Len() {
			t.Fatalf("%s: %s quantile axes differ (%d vs %d)",
				spec.Name, label, p50.Len(), p99.Len())
		}
		for i := 0; i < p50.Len(); i++ {
			// Strict dominance up to float noise: interpolated quantiles of
			// a tiny early-checkpoint population can differ by one ulp.
			if p99.Values[i] < p50.Values[i]-1e-9 {
				t.Fatalf("%s: %s p99 %.3f < p50 %.3f at checkpoint %d",
					spec.Name, label, p99.Values[i], p50.Values[i], i)
			}
		}
	}
	// The final running quantiles must agree with the whole-population
	// distribution — the series is the same data charted over time.
	dist := group1Quantiles(rep)
	for i, q := range []float64{0.5, 0.9, 0.99} {
		last, ok := rep.AdmissionQuantiles[i].Last()
		if !ok || !closeEnough(last, dist[i]) {
			t.Fatalf("%s: final running p%g %.4f != distribution quantile %.4f",
				spec.Name, q*100, last, dist[i])
		}
	}

	// The flash crowd is rejected-then-amplified by construction: the
	// rejection-rate tail must actually show contention.
	if p99, ok := rep.RejectionDist.Quantile(0.99); !ok || p99 <= 0 {
		t.Fatalf("%s: rejection-rate p99 = %.3f, expected visible contention", spec.Name, p99)
	}

	var csv bytes.Buffer
	if err := rep.WriteQuantilesCSV(&csv); err != nil {
		t.Fatalf("%s: quantile CSV: %v", spec.Name, err)
	}
	if head, _, _ := strings.Cut(csv.String(), "\n"); !strings.Contains(head, "admission_ms_p99") {
		t.Fatalf("%s: quantile CSV header %q missing admission_ms_p99", spec.Name, head)
	}

	t.Logf("%s: wall %v\n%s", spec.Name, wall.Round(time.Millisecond), rep.Summary())
	if wallBudget > 0 && wall > wallBudget {
		t.Errorf("%s: wall time %v exceeds budget %v", spec.Name, wall, wallBudget)
	}
	return rep
}

func group1Quantiles(rep *Report) [3]float64 {
	var out [3]float64
	for i, q := range []float64{0.5, 0.9, 0.99} {
		out[i], _ = rep.AdmissionDist.Quantile(q)
	}
	return out
}

func closeEnough(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestMegacrowd10k is the six-digit substrate's gate: a 10k-requester flash
// crowd against 512 seeds must complete — every peer served, invariants
// intact, quantile tails recorded — within a single-digit wall-time budget.
// It runs on every plain `go test ./...`; under the race detector (where the
// catalog conformance suite already covers every code path) it skips, since
// the detector's slowdown makes population scale uninformative as a perf
// gate.
func TestMegacrowd10k(t *testing.T) {
	if raceEnabled {
		t.Skip("population-scale run skipped under the race detector")
	}
	if testing.Short() {
		t.Skip("population-scale run skipped in -short mode")
	}
	spec, ok := ByName("megacrowd-10k")
	if !ok {
		t.Fatal("megacrowd-10k missing from ScaleCatalog")
	}
	// The budget is sized for a whole-repo `go test ./...`, where sibling
	// packages compile and test in parallel with this run and steal cores:
	// the crowd measures ~9s in isolation and up to ~11s under that load.
	rep := runMegacrowd(t, spec, 13*time.Second)
	// Two mechanisms keep the crowd's connections down. The directory client
	// pools persistent connections per destination: one requester's
	// registration, refreshes and candidate samples ride one connection
	// (~364k dials before it, ~300k after). And a grant keeps the line: the
	// probe connection of a chosen supplier carries its Start and the
	// session, so a trigger dials nothing (~305-311k before it, 246-264k
	// after). The ceiling is the readings' median, 256k, plus 10%.
	if rep.Dials == 0 || rep.Dials > 282_000 {
		t.Errorf("megacrowd-10k: %d dials, want (0, 282000] — connection pooling or the held probe line regressed", rep.Dials)
	}
	// The 512-seed boot registers through one batched directory round on a
	// single shared client: one dial, where per-seed registration spent one
	// dial each. A small slack absorbs harness bookkeeping, not a seed loop.
	if rep.SeedBootDials == 0 || rep.SeedBootDials > 8 {
		t.Errorf("megacrowd-10k: %d seed-boot dials, want (0, 8] — batched seed registration regressed", rep.SeedBootDials)
	}
}

// TestMegacrowdFull runs the 50k and 100k entries. They take minutes, not
// seconds, so they gate behind MEGACROWD=full (the scale suite), keeping
// the default test run fast.
func TestMegacrowdFull(t *testing.T) {
	if os.Getenv("MEGACROWD") != "full" {
		t.Skip("set MEGACROWD=full to run the 50k/100k flash crowds")
	}
	if raceEnabled {
		t.Skip("population-scale run skipped under the race detector")
	}
	for _, spec := range ScaleCatalog()[1:] {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			runMegacrowd(t, spec, 0)
		})
	}
}
