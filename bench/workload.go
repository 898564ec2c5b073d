package main

import (
	"fmt"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/experiments"
	"p2pstream/internal/media"
	"p2pstream/internal/scenario"
	"p2pstream/internal/system"
)

// workload is one set of inputs the benchmark runs. Names and reasons are
// repeated in BENCHMARK.json; bench_test.go checks that the two agree.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (instance, error)
	// hostExponent is how the workload's speed follows the host probe's
	// (host.go): when a step of the pointer chase takes x times as long,
	// the workload takes x^hostExponent times as long. Three workloads
	// slow down about as much as the chase; the simulator, a single
	// thread walking an event heap and 50,000 peers, about as its square
	// (README.md, "Host-speed correction").
	hostExponent float64
}

// instance is a workload that has been set up and warmed up.
type instance interface {
	// run measures for about the given window and returns what it did.
	run(window time.Duration) tally
	close()
}

// tally is what one timed window did.
type tally struct {
	attempted, failed int             // units whose output was checked, and those that failed the check
	ops               int             // work done, the denominator of every per-op metric
	lat               []time.Duration // one latency sample per unit that passed its check
	counts            map[string]float64
	firstErr          error
}

// done records a unit that passed its check.
func (t *tally) done(ops int, lat time.Duration) {
	t.ops += ops
	t.lat = append(t.lat, lat)
}

// fail counts n units as failed.
func (t *tally) fail(n int, err error) {
	t.failed += n
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.lat = append(t.lat, o.lat...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	for name, n := range o.counts {
		if t.counts == nil {
			t.counts = make(map[string]float64)
		}
		t.counts[name] += n
	}
}

// workloads lists the benchmark's workloads. quick shrinks every size so
// bench_test.go can run all four in seconds; quick numbers mean nothing.
func workloads(quick bool) []workload {
	bulk := overlayParams{
		// δt = 10µs: the schedule never binds, the stack is the bottleneck.
		file:        &media.File{Name: "bulk", Segments: 1024, SegmentBytes: 16 << 10, SegmentTime: 10 * time.Microsecond},
		seedClasses: []bandwidth.Class{1, 2, 2},
		seeds:       3, clients: 1, warmup: 2,
		opsPerRequester: 1024, wholeRequest: true,
	}
	admit := overlayParams{
		file:        &media.File{Name: "clip", Segments: 8, SegmentBytes: 256, SegmentTime: 5 * time.Microsecond},
		seedClasses: []bandwidth.Class{1, 1, 2, 2, 3, 3, 3, 3},
		seeds:       64, clients: 2, warmup: 200,
		opsPerRequester: 1,
	}
	crowd := crowdParams{requesters: 4000, warmup: 1000}
	day := simParams{scale: experiments.FullScale}
	if quick {
		bulk.file.Segments, bulk.opsPerRequester = 64, 64
		admit.warmup = 20
		crowd = crowdParams{requesters: 500, warmup: 200}
		day.scale = experiments.ReducedScale
	}
	return []workload{
		{"stream-bulk", bulk.setup, 1},
		{"admit-loop", admit.setup, 1},
		{"crowd-vnet", crowd.setup, 1},
		{"sim-day", day.setup, 2},
	}
}

// unitLoop runs whole units back to back until the window has passed (at
// least one).
func unitLoop(window time.Duration, unit func(t *tally)) tally {
	var t tally
	start := time.Now()
	for t.attempted == 0 || time.Since(start) < window {
		unit(&t)
	}
	return t
}

// crowdParams sizes crowd-vnet: a flash crowd on netx.Virtual under
// clock.Virtual, arrivals open-loop in virtual time (fixed by the spec, so
// the generator cannot run late).
type crowdParams struct {
	requesters int
	warmup     int // requesters of the untimed warm-up crowd
}

type crowd struct {
	p    crowdParams
	seed int64
	unit int64 // crowds run so far; each gets its own Spec.Seed
	tr   *tracer
}

func (p crowdParams) setup(seed int64, tr *tracer) (instance, error) {
	c := &crowd{p: p, seed: seed, tr: tr}
	var t tally
	c.runCrowd(p.warmup, &t)
	return c, t.firstErr
}

// runCrowd runs one flash crowd of n requesters and checks its report.
func (c *crowd) runCrowd(n int, t *tally) {
	spec := scenario.Megacrowd(n)
	c.unit++
	spec.Seed = c.seed<<20 + c.unit
	start := time.Now()
	rep, err := scenario.Run(spec)
	end := time.Now()
	t.attempted += n
	if err == nil {
		err = rep.Check()
	}
	if err == nil && rep.Served() != n {
		err = fmt.Errorf("crowd served %d of %d requesters", rep.Served(), n)
	}
	if err != nil {
		// A crowd whose report does not check out proves nothing about
		// any of its requesters.
		t.fail(n, err)
		return
	}
	t.done(n, end.Sub(start))
	if c.tr == nil {
		return
	}
	c.tr.add(0, "scenario.Run", spec.Name, start, end)
	if t.counts == nil {
		t.counts = make(map[string]float64)
	}
	t.counts["netx.dials"] += float64(rep.Dials)
	t.counts["clock.virtual_ms"] += float64(rep.Elapsed) / float64(time.Millisecond)
	for _, nr := range rep.Nodes {
		t.counts["protocol.rejections"] += float64(nr.Attempts - 1)
	}
	for _, st := range rep.ShardStats { // nil unless the registry is sharded
		t.counts["directory.ops"] += float64(st.Registers + st.Refreshes + st.Unregisters + st.Lookups)
	}
}

func (c *crowd) run(window time.Duration) tally {
	return unitLoop(window, func(t *tally) { c.runCrowd(c.p.requesters, t) })
}

func (c *crowd) close() {}

// simParams sizes sim-day: the paper's own evaluation run, single-threaded
// on sim.Engine.
type simParams struct {
	scale experiments.Scale
}

type simDay struct {
	cfg  system.Config
	seed int64
	unit int64
	tr   *tracer
}

func (p simParams) setup(seed int64, tr *tracer) (instance, error) {
	// Warm up on the reduced scale, twice with one seed: equal seeds must
	// give identical runs, and a simulator that has lost that property
	// has no numbers worth recording.
	warm := experiments.ReducedScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
	warm.Seed = seed
	a, err := system.Run(warm)
	if err != nil {
		return nil, err
	}
	b, err := system.Run(warm)
	if err != nil {
		return nil, err
	}
	if a.Events != b.Events || a.TotalProbes != b.TotalProbes {
		return nil, fmt.Errorf("sim-day: seed %d ran %d events / %d probes, then %d / %d",
			seed, a.Events, a.TotalProbes, b.Events, b.TotalProbes)
	}
	return &simDay{cfg: p.scale.Config(dac.DAC, arrival.Pattern2RampUpDown), seed: seed, tr: tr}, nil
}

func (s *simDay) run(window time.Duration) tally {
	return unitLoop(window, func(t *tally) {
		cfg := s.cfg
		s.unit++
		cfg.Seed = s.seed<<20 + s.unit
		start := time.Now()
		res, err := system.Run(cfg)
		end := time.Now()
		t.attempted++
		if err == nil {
			err = checkSim(cfg, res)
		}
		if err != nil {
			t.fail(1, err)
			return
		}
		t.done(cfg.NumRequesters, end.Sub(start))
		if s.tr == nil {
			return
		}
		s.tr.add(0, "system.Run", fmt.Sprintf("seed-%d", cfg.Seed), start, end)
		if t.counts == nil {
			t.counts = make(map[string]float64)
		}
		t.counts["sim.events"] += float64(res.Events)
		t.counts["protocol.probes"] += float64(res.TotalProbes)
		t.counts["protocol.rejections"] += float64(res.TotalRequests - sum(res.Admitted))
	})
}

func (s *simDay) close() {}

// checkSim verifies what one simulation run must satisfy whatever its seed.
func checkSim(cfg system.Config, res *system.Result) error {
	arrived, admitted := sum(res.Arrived), sum(res.Admitted)
	switch {
	case arrived != int64(cfg.NumRequesters):
		return fmt.Errorf("sim-day: %d of %d requesters arrived by the horizon", arrived, cfg.NumRequesters)
	case admitted <= 0 || admitted > arrived:
		return fmt.Errorf("sim-day: %d admitted of %d arrived", admitted, arrived)
	case res.TotalRequests < arrived || res.Events == 0:
		return fmt.Errorf("sim-day: %d requests, %d events for %d arrivals", res.TotalRequests, res.Events, arrived)
	}
	return nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
