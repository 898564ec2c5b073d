package experiments

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/dac"
	"p2pstream/internal/system"
)

// tinyScale keeps the whole experiment suite runnable in a few seconds;
// tiny is its base config.
var (
	tinyScale = Scale{
		Name:          "tiny",
		Requesters:    800,
		Seeds:         20,
		ArrivalWindow: 12 * time.Hour,
		Horizon:       24 * time.Hour,
		Seed:          7,
	}
	tiny = tinyScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
)

func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "table1", "fig7", "fig8a", "fig8b", "fig9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	r := NewRunner(tiny)
	if _, err := r.Run("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// runOne runs the single experiment id.
func runOne(t *testing.T, r *Runner, id string) *Report {
	t.Helper()
	reports, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(reports) != 1 || reports[0].ID != id {
		t.Fatalf("%s ran %d reports", id, len(reports))
	}
	return reports[0]
}

func TestSimulationReport(t *testing.T) {
	rep := runOne(t, NewRunner(tiny), "run")
	for _, want := range []string{
		"policy=DAC_p2p pattern=", "peers=20+800", "capacity: final", "requests=",
		"admission%", "total system capacity",
	} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("run report missing %q:\n%s", want, rep.Text)
		}
	}
	if csv := rep.CSV["run.csv"]; !strings.HasPrefix(csv, "hours,capacity,") {
		t.Errorf("run.csv header wrong: %.60q", csv)
	}
}

// TestRunCacheKeyIsWholeConfig runs two configs that differ only in a field
// the cache key once left out: each must get its own simulation.
func TestRunCacheKeyIsWholeConfig(t *testing.T) {
	r := NewRunner(tiny)
	longer := tiny
	longer.SessionDuration = 2 * tiny.SessionDuration
	a, err := r.run(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.run(longer)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Events == b.Events {
		t.Errorf("SessionDuration %v and %v share one result (%d events)", tiny.SessionDuration, longer.SessionDuration, a.Events)
	}
	if again, _ := r.run(tiny); again != a {
		t.Error("an equal config ran again instead of reusing the cached result")
	}
}

// TestRunOnceUnderConcurrency asks for one config from several goroutines
// at once: one simulation runs and every caller gets its result.
func TestRunOnceUnderConcurrency(t *testing.T) {
	r := NewRunner(tiny)
	results := make([]*system.Result, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.run(tiny)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res == nil || res != results[0] {
			t.Fatalf("caller %d got result %p, caller 0 got %p: the config ran more than once", i, res, results[0])
		}
	}
	if len(r.cache) != 1 {
		t.Errorf("%d cache entries for one config", len(r.cache))
	}
}

func TestFig1Report(t *testing.T) {
	rep, err := NewRunner(tiny).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Assignment I", "delay 5*dt", // the paper's naive assignment
		"Assignment II", "delay 4*dt", // OTS_p2p
		"Exhaustive minimum over all assignments: 4*dt",
	} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Fig1 report missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestFig3Report(t *testing.T) {
	rep, err := NewRunner(tiny).Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's numbers: admitting class-2 first gives average wait 1T;
	// admitting class-1 first gives 2/3 T ~ 0.67T.
	for _, want := range []string{"average waiting time: 1.00T", "average waiting time: 0.67T"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("Fig3 report missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestFig4ReportAndCache(t *testing.T) {
	r := NewRunner(tiny)
	rep, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CSV) != 2 {
		t.Errorf("Fig4 CSV count = %d, want 2 (patterns 2 and 4)", len(rep.CSV))
	}
	for _, name := range slices.Sorted(maps.Keys(rep.CSV)) {
		if !strings.HasPrefix(rep.CSV[name], "hours,DAC_p2p,NDAC_p2p\n") {
			t.Errorf("%s header wrong: %q", name, rep.CSV[name][:40])
		}
	}
	if !strings.Contains(rep.Text, "DAC_p2p") || !strings.Contains(rep.Text, "NDAC_p2p") {
		t.Error("Fig4 chart legend incomplete")
	}
	// The runner caches: running table1 afterwards must not error and must
	// reuse the four cached sims.
	before := len(r.cache)
	if _, err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	if after := len(r.cache); after != before {
		t.Errorf("Table1 after Fig4 grew cache %d -> %d, want reuse", before, after)
	}
}

func TestTable1Shape(t *testing.T) {
	quick := tiny
	quick.Backoff.Base, quick.Backoff.Factor = 5*time.Minute, 3
	for _, tt := range []struct {
		base  system.Config
		label string
	}{
		{tiny, "waiting time (T_bkf=10min, E_bkf=2)"},
		{quick, "waiting time (T_bkf=5min, E_bkf=3)"},
	} {
		rep, err := NewRunner(tt.base).Table1()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"Class 1", "Class 4", "Pattern 2", "Pattern 4", tt.label} {
			if !strings.Contains(rep.Text, want) {
				t.Errorf("Table1 missing %q:\n%s", want, rep.Text)
			}
		}
	}
}

func TestPerClassReports(t *testing.T) {
	r := NewRunner(tiny)
	for _, id := range []string{"fig5", "fig6"} {
		rep := runOne(t, r, id)
		if len(rep.CSV) != 2 {
			t.Errorf("%s CSV count = %d, want 2 (DAC and NDAC)", id, len(rep.CSV))
		}
		for c := 1; c <= 4; c++ {
			if !strings.Contains(rep.Text, "class") {
				t.Errorf("%s missing class legend", id)
			}
		}
	}
}

func TestSweepReports(t *testing.T) {
	r := NewRunner(tiny)
	tests := []struct {
		id    string
		names []string
	}{
		{"fig8a", []string{"M=4", "M=8", "M=16", "M=32"}},
		{"fig8b", []string{"T_out=1min", "T_out=120min"}},
		{"fig9", []string{"E_bkf=1", "E_bkf=4"}},
		{"fig7", []string{"lowest-favored"}},
	}
	for _, tt := range tests {
		rep := runOne(t, r, tt.id)
		for _, name := range tt.names {
			if !strings.Contains(rep.Text, name) {
				t.Errorf("%s missing %q", tt.id, name)
			}
		}
		if len(rep.CSV) == 0 {
			t.Errorf("%s has no CSV output", tt.id)
		}
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	reports, err := NewRunner(tiny).Run("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("all returned %d reports, want %d", len(reports), len(IDs()))
	}
	for i, rep := range reports {
		if rep.ID != IDs()[i] {
			t.Errorf("report %d = %s, want %s", i, rep.ID, IDs()[i])
		}
		if rep.Title == "" || rep.Text == "" {
			t.Errorf("%s report incomplete", rep.ID)
		}
	}
}

func TestScaleConfig(t *testing.T) {
	cfg := FullScale.Config(dac.NDAC, arrival.Pattern4PeriodicBursts)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumRequesters != 50000 || cfg.NumSeeds != 100 {
		t.Error("FullScale config wrong")
	}
	if cfg.Policy != dac.NDAC || cfg.Pattern != arrival.Pattern4PeriodicBursts {
		t.Error("policy/pattern not applied")
	}
	// p2psim's flags default to system.DefaultConfig, so with no flags its
	// experiments run at the paper's scale.
	if !reflect.DeepEqual(FullScale.Config(dac.DAC, arrival.Pattern2RampUpDown), system.DefaultConfig()) {
		t.Error("FullScale.Config(DAC, Pattern 2) differs from system.DefaultConfig()")
	}
	if err := ReducedScale.Config(dac.DAC, arrival.Pattern1Constant).Validate(); err != nil {
		t.Fatal(err)
	}
}
