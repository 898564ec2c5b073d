// Whole-cluster benchmarks of the live overlay. The micro-benchmarks of the
// underlying mechanisms sit beside their packages (internal/chord,
// internal/lookup, internal/core, internal/dac, ...); the paper's tables
// and figures are regenerated by cmd/p2psim, and bench/ measures the
// paper's full-scale simulation end to end (sim-day).
package p2pstream_test

import (
	"testing"

	"p2pstream/internal/scenario"
)

// benchScenario runs one cataloged live-cluster scenario per iteration on
// a fresh virtual substrate, invariants checked — the cost of a full
// declarative harness run, and a smoke test that the catalog stays green
// when CI runs benchmarks with -benchtime=1x.
func benchScenario(b *testing.B, name string) {
	b.Helper()
	spec, ok := scenario.ByName(name)
	if !ok {
		b.Fatalf("scenario %q not in catalog", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFlashCrowd measures the contention-heavy catalog entry:
// eight simultaneous requesters against three seeds.
func BenchmarkScenarioFlashCrowd(b *testing.B) { benchScenario(b, "flash-crowd") }

// BenchmarkScenarioChurnStorm measures the churn-heavy catalog entry:
// 13 hosts, far links, a seed crash, a graceful leave and a late rejoin.
func BenchmarkScenarioChurnStorm(b *testing.B) { benchScenario(b, "churn-storm") }
