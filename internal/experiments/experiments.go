// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5), its ablations and replication, and the single
// whole-system run. Each experiment returns a Report containing a
// human-readable rendering (tables and ASCII charts mirroring the paper's
// plots) plus CSV files with the raw series; cmd/p2psim runs them. Every
// simulation they need goes through one cached Runner.run.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
	"p2pstream/internal/metrics"
	"p2pstream/internal/system"
)

// Scale sets the workload size of the simulation-based experiments. The
// paper's scale (FullScale) runs each simulation in roughly a second;
// ReducedScale keeps benchmarks and CI fast while preserving the shapes.
type Scale struct {
	Name          string
	Requesters    int
	Seeds         int
	ArrivalWindow time.Duration
	Horizon       time.Duration
	Seed          int64
}

// FullScale is the paper's setup: 100 seeds, 50,000 requesters, first
// requests over 72 h, 144 h simulated.
var FullScale = Scale{
	Name:          "full",
	Requesters:    50000,
	Seeds:         100,
	ArrivalWindow: 72 * time.Hour,
	Horizon:       144 * time.Hour,
	Seed:          1,
}

// ReducedScale is a 10x-smaller workload for benchmarks and quick runs.
var ReducedScale = Scale{
	Name:          "reduced",
	Requesters:    5000,
	Seeds:         50,
	ArrivalWindow: 36 * time.Hour,
	Horizon:       72 * time.Hour,
	Seed:          1,
}

// Config builds the paper-parameter simulation config for this scale.
func (s Scale) Config(policy dac.Policy, pattern arrival.Pattern) system.Config {
	cfg := system.DefaultConfig()
	cfg.Policy = policy
	cfg.Pattern = pattern
	cfg.NumRequesters = s.Requesters
	cfg.NumSeeds = s.Seeds
	cfg.ArrivalWindow = s.ArrivalWindow
	cfg.Horizon = s.Horizon
	cfg.Seed = s.Seed
	return cfg
}

// Report is one regenerated paper artifact.
type Report struct {
	// ID is the experiment identifier ("fig4", "table1", ...).
	ID string
	// Title restates the paper artifact.
	Title string
	// Text is the rendered report: tables and ASCII charts.
	Text string
	// CSV maps file names to raw series data.
	CSV map[string]string
}

// Runner executes experiments against one base config, caching simulation
// runs so experiments that share a configuration (e.g. Figure 5 and Figure 6)
// reuse them. Runner is safe for concurrent use, and Run runs the
// experiments of a set concurrently: at most GOMAXPROCS simulations at a
// time, each config simulated once however many experiments ask for it.
type Runner struct {
	base system.Config
	sims chan struct{} // one token per simulation in progress

	mu    sync.Mutex
	cache map[string]*flight
}

// flight is one config's simulation: done closes once res and err are set.
type flight struct {
	done chan struct{}
	res  *system.Result
	err  error
}

// NewRunner returns a Runner whose experiments vary base: each sets the
// policy, pattern and parameter it plots and keeps every other field.
func NewRunner(base system.Config) *Runner {
	return &Runner{
		base:  base,
		sims:  make(chan struct{}, runtime.GOMAXPROCS(0)),
		cache: make(map[string]*flight),
	}
}

// run executes (or reuses) the simulation of cfg. Every simulation of the
// package starts here. The cache is keyed by the whole config, so two runs
// share a result only if their configs are equal; a caller that asks for a
// config already being simulated waits for that simulation.
func (r *Runner) run(cfg system.Config) (*system.Result, error) {
	key := fmt.Sprintf("%#v", cfg)
	r.mu.Lock()
	f, ok := r.cache[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		r.cache[key] = f
	}
	r.mu.Unlock()
	if !ok {
		r.sims <- struct{}{}
		f.res, f.err = system.Run(cfg)
		<-r.sims
		close(f.done)
	}
	<-f.done
	return f.res, f.err
}

// config is the base config under policy and pattern.
func (r *Runner) config(policy dac.Policy, pattern arrival.Pattern) system.Config {
	cfg := r.base
	cfg.Policy, cfg.Pattern = policy, pattern
	return cfg
}

// The sets an experiment belongs to: "all" runs the paper's artifacts,
// "all-ext" those and the extensions, and one that is alone runs only when
// named.
const (
	alone = iota
	paper
	extension
)

// catalog is every experiment in the order a set runs them: the single run,
// the paper's artifacts in paper order, then the extensions.
var catalog = []struct {
	id  string
	set int
	run func(*Runner) (*Report, error)
}{
	{"run", alone, (*Runner).Simulation},
	{"fig1", paper, (*Runner).Fig1},
	{"fig3", paper, (*Runner).Fig3},
	{"fig4", paper, (*Runner).Fig4},
	{"fig5", paper, (*Runner).Fig5},
	{"fig6", paper, (*Runner).Fig6},
	{"table1", paper, (*Runner).Table1},
	{"fig7", paper, (*Runner).Fig7},
	{"fig8a", paper, (*Runner).Fig8a},
	{"fig8b", paper, (*Runner).Fig8b},
	{"fig9", paper, (*Runner).Fig9},
	{"ablation-assign", extension, (*Runner).AblationAssign},
	{"ablation-down", extension, (*Runner).AblationDown},
	{"ablation-lookup", extension, (*Runner).AblationLookup},
	{"replication", extension, (*Runner).Replication},
}

// IDs lists the paper's artifacts in paper order: what "all" runs.
func IDs() []string {
	var ids []string
	for _, e := range catalog {
		if e.set == paper {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// Run executes the experiment with the given ID, or a set: "all" runs the
// paper's artifacts and "all-ext" adds the extensions (ablations,
// replication). The experiments of a set run concurrently; the reports come
// back in catalog order.
func (r *Runner) Run(exp string) ([]*Report, error) {
	var ids []string
	var picked []int // indices into catalog
	for i, e := range catalog {
		ids = append(ids, e.id)
		if exp == e.id || (exp == "all" && e.set == paper) || (exp == "all-ext" && e.set != alone) {
			picked = append(picked, i)
		}
	}
	if picked == nil {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want all, all-ext or one of %s)",
			exp, strings.Join(ids, ", "))
	}
	reports := make([]*Report, len(picked))
	errs := make([]error, len(picked))
	var wg sync.WaitGroup
	for i, c := range picked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = catalog[c].run(r)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", catalog[picked[i]].id, err)
		}
	}
	return reports, nil
}

// Simulation is the "run" experiment: one simulation of the base config as
// given, its counters, per-class outcomes and capacity chart, and every
// sampled series but Figure 7's as CSV.
func (r *Runner) Simulation() (*Report, error) {
	res, err := r.run(r.base)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%v pattern=%v peers=%d+%d horizon=%v (%d events)\n",
		r.base.Policy, r.base.Pattern, r.base.NumSeeds, r.base.NumRequesters, r.base.Horizon, res.Events)
	last, _ := res.Capacity.Last()
	fmt.Fprintf(&b, "capacity: final %.0f of max %d (%.1f%%)\n", last, res.MaxCapacity, 100*last/float64(res.MaxCapacity))
	fmt.Fprintf(&b, "requests=%d probes=%d reminders=%d\n\n", res.TotalRequests, res.TotalProbes, res.TotalReminders)
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-12s %-10s %-10s %-12s\n",
		"class", "arrived", "admitted", "admission%", "avg rej", "delay*dt", "avg wait")
	for c := range res.Arrived {
		rate, _ := res.AdmissionRate[c].Last()
		fmt.Fprintf(&b, "%-8d %-10d %-10d %-12.1f %-10.2f %-10.2f %-12v\n",
			c+1, res.Arrived[c], res.Admitted[c], rate, res.AvgRejections[c], res.AvgDelaySlots[c],
			res.AvgWait[c].Round(time.Minute))
	}
	b.WriteString("\n")
	b.WriteString(metrics.Chart("total system capacity", 64, 14, res.Capacity))
	series := append([]*metrics.Series{res.Capacity, res.OverallAdmissionRate}, res.AdmissionRate...)
	csv, err := seriesCSV(append(series, res.BufferingDelay...)...)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "run",
		Title: "Whole-system simulation of the base config",
		Text:  b.String(),
		CSV:   map[string]string{"run.csv": csv},
	}, nil
}

// Fig1 reproduces Figure 1: the buffering delay of the naive contiguous
// assignment (Assignment I) versus the optimal OTS_p2p assignment
// (Assignment II) for suppliers of classes 1, 2, 3, 3.
func (r *Runner) Fig1() (*Report, error) {
	suppliers := []core.Supplier{
		{ID: "Ps1", Class: 1}, {ID: "Ps2", Class: 2},
		{ID: "Ps3", Class: 3}, {ID: "Ps4", Class: 3},
	}
	type row struct {
		name string
		fn   func([]core.Supplier) (*core.Assignment, error)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Suppliers: Ps1=class-1 (R0/2), Ps2=class-2 (R0/4), Ps3,Ps4=class-3 (R0/8)\n\n")
	for _, v := range []row{
		{"Assignment I  (contiguous blocks)", core.BlockAssign},
		{"Assignment II (OTS_p2p, optimal)", core.Assign},
		{"Figure 2 literal round-robin", core.RoundRobinAssign},
		{"Ascending round-robin baseline", core.AscendingAssign},
	} {
		a, err := v.fn(suppliers)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s: delay %d*dt\n", v.name, a.DelaySlots())
		for i, s := range a.Suppliers {
			fmt.Fprintf(&b, "    %s (%v): segments %v\n", s.ID, s.Class, a.Segments[i])
		}
	}
	best, err := core.ExhaustiveMinDelaySlots(suppliers)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nExhaustive minimum over all assignments: %d*dt (Theorem 1: n*dt = 4*dt)\n", best)
	return &Report{
		ID:    "fig1",
		Title: "Figure 1: media data assignments and their buffering delays",
		Text:  b.String(),
	}, nil
}

// Fig3 reproduces Figure 3: how the admission order of heterogeneous
// requesting peers changes the growth of system capacity.
func (r *Runner) Fig3() (*Report, error) {
	suppliers := []bandwidth.Class{2, 2, 1, 1} // Ps1..Ps4
	base := bandwidth.SumOffers(suppliers)
	var b strings.Builder
	fmt.Fprintf(&b, "Initial suppliers: 2x class-2 + 2x class-1, capacity C(t0) = %d\n", bandwidth.Sessions(base))
	fmt.Fprintf(&b, "Requesting peers: Pr1,Pr2 = class-2; Pr3 = class-1; session length T\n\n")

	render := func(name string, order []bandwidth.Class) (avgWaitT float64) {
		fmt.Fprintf(&b, "%s:\n", name)
		agg := base
		now := 0 // in units of T
		remaining := append([]bandwidth.Class(nil), order...)
		var waits []int
		for len(remaining) > 0 {
			cap := bandwidth.Sessions(agg)
			admitNow := cap
			if admitNow > len(remaining) {
				admitNow = len(remaining)
			}
			for i := 0; i < admitNow; i++ {
				waits = append(waits, now)
				agg += remaining[i].Offer()
			}
			remaining = remaining[admitNow:]
			fmt.Fprintf(&b, "  t0+%dT: admit %d peer(s); capacity at t0+%dT grows to %d\n",
				now, admitNow, now+1, bandwidth.Sessions(agg))
			now++
		}
		var sum int
		for _, w := range waits {
			sum += w
		}
		avg := float64(sum) / float64(len(waits))
		fmt.Fprintf(&b, "  average waiting time: %.2fT\n\n", avg)
		return avg
	}
	a := render("(a) admit class-2 Pr1 first (order Pr1, Pr2, Pr3)", []bandwidth.Class{2, 2, 1})
	c := render("(b) admit class-1 Pr3 first (order Pr3, Pr1, Pr2)", []bandwidth.Class{1, 2, 2})
	fmt.Fprintf(&b, "Differentiated admission (b) cuts average waiting time from %.2fT to %.2fT,\n", a, c)
	fmt.Fprintf(&b, "matching the paper's 1T vs 2/3T example.\n")
	return &Report{
		ID:    "fig3",
		Title: "Figure 3: admission decisions and capacity growth",
		Text:  b.String(),
	}, nil
}

// Fig4 reproduces Figure 4: total system capacity over time under DAC_p2p
// and NDAC_p2p for arrival Patterns 2 and 4.
func (r *Runner) Fig4() (*Report, error) {
	rep := &Report{
		ID:    "fig4",
		Title: "Figure 4: system capacity amplification (DAC_p2p vs NDAC_p2p)",
		CSV:   map[string]string{},
	}
	var b strings.Builder
	for _, pattern := range []arrival.Pattern{arrival.Pattern2RampUpDown, arrival.Pattern4PeriodicBursts} {
		dacRes, err := r.run(r.config(dac.DAC, pattern))
		if err != nil {
			return nil, err
		}
		ndacRes, err := r.run(r.config(dac.NDAC, pattern))
		if err != nil {
			return nil, err
		}
		d := renameSeries(dacRes.Capacity, "DAC_p2p")
		n := renameSeries(ndacRes.Capacity, "NDAC_p2p")
		b.WriteString(metrics.Chart(fmt.Sprintf("Total system capacity, %v (max %d)", pattern, dacRes.MaxCapacity), 64, 16, d, n))
		dLast, _ := d.Last()
		fmt.Fprintf(&b, "  DAC final capacity: %.0f (%.1f%% of max)\n\n", dLast, 100*dLast/float64(dacRes.MaxCapacity))
		csv, err := seriesCSV(d, n)
		if err != nil {
			return nil, err
		}
		rep.CSV[fmt.Sprintf("fig4_%v.csv", pattern)] = csv
	}
	rep.Text = b.String()
	return rep, nil
}

// Fig5 reproduces Figure 5: per-class accumulative admission rate under
// both protocols, arrival Pattern 2.
func (r *Runner) Fig5() (*Report, error) {
	return r.perClassSeries("fig5",
		"Figure 5: per-class accumulative request admission rate (%), Pattern 2",
		func(res *system.Result) []*metrics.Series { return res.AdmissionRate })
}

// Fig6 reproduces Figure 6: per-class accumulative average buffering delay
// (in δt units) under both protocols, arrival Pattern 2.
func (r *Runner) Fig6() (*Report, error) {
	return r.perClassSeries("fig6",
		"Figure 6: per-class accumulative average buffering delay (x dt), Pattern 2",
		func(res *system.Result) []*metrics.Series { return res.BufferingDelay })
}

func (r *Runner) perClassSeries(id, title string, pick func(*system.Result) []*metrics.Series) (*Report, error) {
	rep := &Report{ID: id, Title: title, CSV: map[string]string{}}
	var b strings.Builder
	for _, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
		res, err := r.run(r.config(policy, arrival.Pattern2RampUpDown))
		if err != nil {
			return nil, err
		}
		series := pick(res)
		b.WriteString(metrics.Chart(fmt.Sprintf("%s — %v", title, policy), 64, 14, series...))
		for _, s := range series {
			if v, ok := s.Last(); ok {
				fmt.Fprintf(&b, "  final %s = %.2f\n", s.Name, v)
			}
		}
		b.WriteString("\n")
		csv, err := seriesCSV(series...)
		if err != nil {
			return nil, err
		}
		rep.CSV[fmt.Sprintf("%s_%v.csv", id, policy)] = csv
	}
	rep.Text = b.String()
	return rep, nil
}

// Table1 reproduces Table 1: per-class average number of rejections before
// admission, DAC_p2p/NDAC_p2p, Patterns 2 and 4.
func (r *Runner) Table1() (*Report, error) {
	var rej [2][2][]float64 // [Pattern 2, Pattern 4][DAC, NDAC], per class
	for i, pattern := range []arrival.Pattern{arrival.Pattern2RampUpDown, arrival.Pattern4PeriodicBursts} {
		for j, policy := range []dac.Policy{dac.DAC, dac.NDAC} {
			res, err := r.run(r.config(policy, pattern))
			if err != nil {
				return nil, err
			}
			rej[i][j] = res.AvgRejections
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-14s\n", "Avg. rej.", "Pattern 2", "Pattern 4")
	for c := 0; c < 4; c++ {
		fmt.Fprintf(&b, "Class %-6d %.2f/%-9.2f %.2f/%-9.2f\n", c+1, rej[0][0][c], rej[0][1][c], rej[1][0][c], rej[1][1][c])
	}
	b.WriteString("\n(cells are 'DAC_p2p/NDAC_p2p'; paper reports e.g. 1.77/3.73 for class 1, Pattern 2)\n")
	// Waiting time implied by the backoff schedule.
	bkf := r.base.Backoff
	fmt.Fprintf(&b, "\nImplied average waiting time (T_bkf=%gmin, E_bkf=%d):\n", bkf.Base.Minutes(), bkf.Factor)
	for c := 0; c < 4; c++ {
		w, err := bkf.TotalWait(int(rej[0][0][c] + 0.5))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  class %d (Pattern 2, DAC): ~%v\n", c+1, w)
	}
	return &Report{
		ID:    "table1",
		Title: "Table 1: per-class average rejections before admission",
		Text:  b.String(),
	}, nil
}

// Fig7 reproduces Figure 7: the lowest requesting-peer class favored by
// each class of supplying peers over time (3-hour snapshots), Pattern 4.
func (r *Runner) Fig7() (*Report, error) {
	res, err := r.run(r.config(dac.DAC, arrival.Pattern4PeriodicBursts))
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(metrics.Chart("Lowest favored class by supplier class (Pattern 4, DAC_p2p)", 64, 12, res.LowestFavored...))
	for _, s := range res.LowestFavored {
		if v, ok := s.Last(); ok {
			fmt.Fprintf(&b, "  final %s = %.2f (4.0 = fully relaxed)\n", s.Name, v)
		}
	}
	csv, err := seriesCSV(res.LowestFavored...)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:    "fig7",
		Title: "Figure 7: adaptivity of admission differentiation",
		Text:  b.String(),
		CSV:   map[string]string{"fig7_pattern4.csv": csv},
	}, nil
}

// Fig8a reproduces Figure 8(a): impact of the candidate count M on capacity
// amplification, Pattern 2.
func (r *Runner) Fig8a() (*Report, error) {
	return r.capacitySweep("fig8a", "Figure 8(a): impact of M on system capacity", "M",
		[]sweepPoint{
			{"M=4", func(c *system.Config) { c.M = 4 }},
			{"M=8", func(c *system.Config) { c.M = 8 }},
			{"M=16", func(c *system.Config) { c.M = 16 }},
			{"M=32", func(c *system.Config) { c.M = 32 }},
		})
}

// Fig8b reproduces Figure 8(b): impact of the idle timeout T_out on
// capacity amplification, Pattern 2.
func (r *Runner) Fig8b() (*Report, error) {
	return r.capacitySweep("fig8b", "Figure 8(b): impact of T_out on system capacity", "T_out",
		[]sweepPoint{
			{"T_out=1min", func(c *system.Config) { c.TOut = time.Minute }},
			{"T_out=2min", func(c *system.Config) { c.TOut = 2 * time.Minute }},
			{"T_out=20min", func(c *system.Config) { c.TOut = 20 * time.Minute }},
			{"T_out=60min", func(c *system.Config) { c.TOut = 60 * time.Minute }},
			{"T_out=120min", func(c *system.Config) { c.TOut = 120 * time.Minute }},
		})
}

type sweepPoint struct {
	name   string
	mutate func(*system.Config)
}

func (r *Runner) capacitySweep(id, title, param string, points []sweepPoint) (*Report, error) {
	var series []*metrics.Series
	var overhead []string
	for _, p := range points {
		cfg := r.config(dac.DAC, arrival.Pattern2RampUpDown)
		p.mutate(&cfg)
		res, err := r.run(cfg)
		if err != nil {
			return nil, err
		}
		series = append(series, renameSeries(res.Capacity, p.name))
		var admitted int64
		for _, a := range res.Admitted {
			admitted += a
		}
		if admitted > 0 {
			overhead = append(overhead, fmt.Sprintf("%-14s %.1f probes/admission (%d probes total)",
				p.name, float64(res.TotalProbes)/float64(admitted), res.TotalProbes))
		}
	}
	var b strings.Builder
	b.WriteString(metrics.Chart(title, 64, 14, series...))
	b.WriteString(sweepMidpointTable(param, series, r.base.ArrivalWindow/2))
	if len(overhead) > 0 {
		// The paper (Section 5.2(6)) notes that a large M "may increase the
		// probing overhead and traffic"; quantify it.
		b.WriteString("\nprobing overhead:\n")
		for _, line := range overhead {
			b.WriteString("  " + line + "\n")
		}
	}
	csv, err := seriesCSV(series...)
	if err != nil {
		return nil, err
	}
	return &Report{ID: id, Title: title, Text: b.String(),
		CSV: map[string]string{id + ".csv": csv}}, nil
}

// Fig9 reproduces Figure 9: impact of the backoff exponent E_bkf on the
// overall accumulative admission rate, Pattern 2.
func (r *Runner) Fig9() (*Report, error) {
	var series []*metrics.Series
	for _, factor := range []int{1, 2, 3, 4} {
		cfg := r.config(dac.DAC, arrival.Pattern2RampUpDown)
		cfg.Backoff.Factor = factor
		res, err := r.run(cfg)
		if err != nil {
			return nil, err
		}
		series = append(series, renameSeries(res.OverallAdmissionRate, fmt.Sprintf("E_bkf=%d", factor)))
	}
	var b strings.Builder
	title := "Figure 9: impact of E_bkf on overall admission rate (%)"
	b.WriteString(metrics.Chart(title, 64, 14, series...))
	b.WriteString(sweepMidpointTable("E_bkf", series, r.base.ArrivalWindow/2))
	csv, err := seriesCSV(series...)
	if err != nil {
		return nil, err
	}
	return &Report{ID: "fig9", Title: title, Text: b.String(),
		CSV: map[string]string{"fig9.csv": csv}}, nil
}

// sweepMidpointTable summarizes a parameter sweep at the arrival midpoint
// and at the horizon, where the paper's curves separate most clearly.
func sweepMidpointTable(param string, series []*metrics.Series, midpoint time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-14s %-16s %-16s\n", param, fmt.Sprintf("value@%s", midpoint), "value@end")
	for _, s := range series {
		mid, _ := s.At(midpoint)
		last, _ := s.Last()
		fmt.Fprintf(&b, "%-14s %-16.1f %-16.1f\n", s.Name, mid, last)
	}
	return b.String()
}

func renameSeries(s *metrics.Series, name string) *metrics.Series {
	c := *s
	c.Name = name
	return &c
}

func seriesCSV(series ...*metrics.Series) (string, error) {
	var b strings.Builder
	if err := metrics.WriteCSV(&b, series...); err != nil {
		return "", err
	}
	return b.String(), nil
}
