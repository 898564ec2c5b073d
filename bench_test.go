// Benchmarks regenerating every table and figure of the paper (the ten
// experiments of internal/experiments.IDs), plus micro-benchmarks of the underlying mechanisms. The
// simulation-backed benchmarks run a reduced workload per iteration so
// `go test -bench=.` completes in minutes; cmd/p2pbench runs the same
// experiments at the paper's full 50,100-peer scale.
package p2pstream_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chord"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
	"p2pstream/internal/experiments"
	"p2pstream/internal/lookup"
	"p2pstream/internal/scenario"
	"p2pstream/internal/system"
)

// benchScale keeps one simulation around 50-100ms so every experiment
// benchmark finishes quickly while exercising the full mechanism.
var benchScale = experiments.Scale{
	Name:          "bench",
	Requesters:    1500,
	Seeds:         30,
	ArrivalWindow: 18 * time.Hour,
	Horizon:       36 * time.Hour,
	Seed:          1,
}

// benchExperiment runs one paper artifact per iteration with a fresh
// runner (no cross-iteration caching).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchScale).Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig1Assignment regenerates Figure 1 (E1): the four assignment
// strategies on the paper's supplier mix plus the exhaustive optimum.
func BenchmarkFig1Assignment(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig3Capacity regenerates Figure 3 (E2): admission order versus
// capacity growth.
func BenchmarkFig3Capacity(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4CapacityAmplification regenerates Figure 4 (E3): capacity
// under DAC_p2p vs NDAC_p2p for Patterns 2 and 4 (four simulations).
func BenchmarkFig4CapacityAmplification(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5AdmissionRate regenerates Figure 5 (E4).
func BenchmarkFig5AdmissionRate(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6BufferingDelay regenerates Figure 6 (E5).
func BenchmarkFig6BufferingDelay(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable1Rejections regenerates Table 1 (E6).
func BenchmarkTable1Rejections(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig7Adaptivity regenerates Figure 7 (E7).
func BenchmarkFig7Adaptivity(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8aImpactM regenerates Figure 8(a) (E8): the M sweep.
func BenchmarkFig8aImpactM(b *testing.B) { benchExperiment(b, "fig8a") }

// BenchmarkFig8bImpactTout regenerates Figure 8(b) (E9): the T_out sweep.
func BenchmarkFig8bImpactTout(b *testing.B) { benchExperiment(b, "fig8b") }

// BenchmarkFig9ImpactBackoff regenerates Figure 9 (E10): the E_bkf sweep.
func BenchmarkFig9ImpactBackoff(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkSimulationFullDay measures one raw simulation (no report
// rendering): the cost backing every figure.
func BenchmarkSimulationFullDay(b *testing.B) {
	cfg := benchScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := system.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the core mechanisms ---------------------------

// BenchmarkOTSAssign measures OTS_p2p itself across session sizes.
func BenchmarkOTSAssign(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		suppliers := homogeneousMix(n)
		b.Run(fmt.Sprintf("suppliers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := core.Assign(suppliers)
				if err != nil {
					b.Fatal(err)
				}
				if a.DelaySlots() != int64(len(suppliers)) {
					b.Fatal("Theorem 1 violated")
				}
			}
		})
	}
}

// homogeneousMix builds the smallest homogeneous supplier set of size
// >= n with an exact R0 sum: 2^k class-k peers.
func homogeneousMix(n int) []core.Supplier {
	// n = 2^k homogeneous class-k peers.
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	suppliers := make([]core.Supplier, 1<<uint(k))
	for i := range suppliers {
		suppliers[i] = core.Supplier{ID: fmt.Sprint(i), Class: bandwidth.Class(k)}
	}
	return suppliers
}

// BenchmarkAdmissionProbe measures the supplier-side probe path.
func BenchmarkAdmissionProbe(b *testing.B) {
	sup, err := dac.NewSupplier(2, 4, dac.DAC)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sup.HandleProbe(bandwidth.Class(1+i%4), rng.Float64())
	}
}

// BenchmarkDirectorySample measures candidate sampling from a 50,000-peer
// directory (the lookup on every admission attempt).
func BenchmarkDirectorySample(b *testing.B) {
	dir := lookup.NewDirectory[int]()
	for i := 0; i < 50000; i++ {
		if err := dir.Register(lookup.Entry[int]{ID: i, Class: bandwidth.Class(1 + i%4)}); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := dir.Sample(8, rng); len(got) != 8 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkChordLookup measures decentralized candidate discovery on a
// 4,096-peer Chord ring.
func BenchmarkChordLookup(b *testing.B) {
	members := make([]chord.Member, 4096)
	for i := range members {
		members[i] = chord.Member{Name: fmt.Sprintf("peer-%d", i), Class: bandwidth.Class(1 + i%4)}
	}
	ring, err := chord.New(members)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.SampleCandidates("peer-0", 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- whole-cluster scenario benchmarks ----------------------------------

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

// --- extension-experiment benchmarks ------------------------------------

// BenchmarkAblationAssign measures the assignment-strategy ablation: 2,000
// random supplier mixes through all four strategies.
func BenchmarkAblationAssign(b *testing.B) { benchExperiment(b, "ablation-assign") }

// BenchmarkAblationDown measures the failure-injection sweep (four
// simulations at down probabilities 0-50%).
func BenchmarkAblationDown(b *testing.B) { benchExperiment(b, "ablation-down") }

// BenchmarkAblationLookup measures the directory-vs-Chord substrate swap.
func BenchmarkAblationLookup(b *testing.B) { benchExperiment(b, "ablation-lookup") }

// BenchmarkReplication measures the 5-seed replication of the headline
// DAC-vs-NDAC comparison (ten simulations).
func BenchmarkReplication(b *testing.B) { benchExperiment(b, "replication") }
