// Command bench is the repository's benchmark: four workloads over the
// live overlay on real TCP, the virtual crowd and the paper's simulator,
// each reporting the same end-to-end metrics, plus a traced run that
// reports per-layer metrics. See README.md beside this file, and
// BENCHMARK.json at the repository root for the contract it is run under.
//
//	bash bench/run.sh --workload admit-loop --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 [--runs 3] [--trace 1]    # every workload, one child process each
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setups is how often a run sets its workload up; setup_s is the median.
const setups = 5

// stretchLen is how long the workload runs between two bursts of the host
// probe. A workload whose unit is longer runs one unit per stretch.
const stretchLen = time.Second

// outDir receives everything the benchmark writes: results and traces.
const outDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run in this process; empty runs every workload, one child process each")
		seed    = flag.Int64("seed", 1, "seed of every generator: seed-node class order, node RNGs, Spec.Seed, cfg.Seed")
		seconds = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 turns the wrappers and spans on and reports the per-layer metrics")
		quick   = flag.Bool("quick", false, "shrink every workload to smoke-test size; the numbers mean nothing")
		runs    = flag.Int("runs", 1, "with no -workload: repeat the whole set this often, seeds seed, seed+1, ...")
		out     = flag.String("out", "", "with no -workload: where the results go (default "+outDir+"/results.json, or results-trace.json with -trace 1)")
		compare = flag.Bool("compare", false, "compare two results files: bench -compare A.json B.json")
	)
	flag.Parse()
	if raceEnabled {
		fatal(fmt.Errorf("refusing to measure a -race build"))
	}
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *name == "":
		err = runSuite(*seed, *seconds, *trace == 1, *quick, *runs, *out)
	default:
		var res runResult
		if res, err = measure(*name, *seed, *seconds, *trace == 1, *quick); err == nil {
			var line []byte
			line, err = json.Marshal(res)
			fmt.Printf("%s\n", line)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single run prints.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure sets one workload up and measures it in this process. Untraced
// it reports the end-to-end metrics; traced it reports the per-layer ones,
// and end-to-end metrics are never taken from a traced run.
func measure(name string, seed int64, seconds float64, traced, quick bool) (runResult, error) {
	var res runResult
	var w *workload
	for _, cand := range workloads(quick) {
		if cand.name == name {
			w = &cand
		}
	}
	if w == nil {
		return res, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		spec, err := loadSpec()
		if err != nil {
			return res, err
		}
		seconds = float64(spec.RunSeconds)
	}
	warnIfLoaded()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	probe, err := newHostProbe()
	if err != nil {
		return res, err
	}
	defer probe.close()
	var inst instance
	setupS := make([]float64, 0, setups)
	chase := probe.burst()
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if inst, err = w.setup(seed, tr); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(start).Seconds()
		after := probe.burst()
		setupS = append(setupS, took/hostFactor(bracket(chase, after), w.hostExponent))
		chase = after
	}
	if traced {
		tr.reset()
	}

	// The timed window: stretches of the workload, a burst of the probe
	// between them.
	window := time.Duration(seconds * float64(time.Second))
	var t tally
	var stretches []stretch
	allocs, begin := mallocs(), time.Now()
	for i := 0; i == 0 || time.Since(begin) < window; i++ {
		cpu, start := cpuTime(), time.Now()
		st := inst.run(min(stretchLen, window))
		sl := stretch{wall: time.Since(start), cpu: cpuTime() - cpu, ops: st.ops, lat: median(inUnit(st.lat, time.Millisecond))}
		after := probe.burst()
		sl.chaseNS = bracket(chase, after)
		chase = after
		if sl.ops > 0 {
			stretches = append(stretches, sl)
		}
		t.merge(st)
	}
	allocs = mallocs() - allocs
	inst.close()
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d failed, first: %v\n", name, t.failed, t.attempted, t.firstErr)
	}
	if t.ops == 0 {
		return res, fmt.Errorf("%s: no op completed in %.1fs", name, seconds)
	}
	m := summarise(stretches, w.hostExponent)
	fmt.Fprintf(os.Stderr, "bench: %s: %d stretches; host chase %.1f ns/step, factor %.3f; as measured: %.6g ops/s, p50 %.6g ms, %.6g CPU-us/op\n",
		name, len(stretches), m.chaseNS, hostFactor(m.chaseNS, w.hostExponent), m.rawThroughput, m.rawLatMS, m.rawCPUUS)

	var vals map[string]float64
	defs := perLayer
	if !traced {
		defs = endToEnd
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		vals = map[string]float64{
			"setup_s":          median(setupS),
			"throughput_per_s": m.throughput,
			"latency_p50_ms":   m.latMS,
			"cpu_us_per_op":    m.cpuUS,
			"allocs_per_op":    float64(allocs) / float64(t.ops),
			"peak_rss_MB":      rss - probeMB,
		}
	} else {
		probes, err := layerProbes()
		if err != nil {
			return res, err
		}
		vals = layerValues(t, tr, m, probes)
		printAttribution(os.Stderr, name, vals, m.rawCPUUS)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return res, err
		}
		if err := tr.writeFile(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return res, err
		}
	}
	res = runResult{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		res.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	return res, nil
}
