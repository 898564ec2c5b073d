package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports. Every workload reports every
// one of them; what an op and a latency sample are is the workload's (see
// README.md). BENCHMARK.json repeats the names and units and fixes the
// bounds; bench_test.go checks that the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_MB", "MB"},
}

// perLayer is what a traced run reports: costs from the layer probes
// (workload-independent), counts and spans from the traced workload. A
// count the workload has no seam for reads 0.
var perLayer = []metricDef{
	{"clock.virtual_timer_ns", "ns"},
	{"clock.virtual_timer_allocs", "count"},
	{"clock.wall_ms_per_virtual_ms", "ratio"},
	{"sim.event_ns", "ns"},
	{"sim.event_allocs", "count"},
	{"sim.events_per_op", "count"},
	{"netx.tcp_dial_us", "us"},
	{"netx.dials_per_op", "count"},
	{"netx.writes_per_op", "count"},
	{"netx.wire_bytes_per_op", "B"},
	{"netx.vnet_chunk_ns", "ns"},
	{"netx.vnet_chunk_allocs", "count"},
	{"netx.vnet_dial_ns", "ns"},
	{"netx.vnet_dial_allocs", "count"},
	{"transport.segment_frame_us", "us"},
	{"transport.segment_frame_allocs", "count"},
	{"transport.segment_wire_ratio", "ratio"},
	{"transport.small_frame_ns", "ns"},
	{"transport.small_frame_allocs", "count"},
	{"transport.call_us", "us"},
	{"directory.lookup_us", "us"},
	{"directory.lookup_10k_us", "us"},
	{"directory.register_us", "us"},
	{"directory.ops_per_op", "count"},
	{"protocol.attempt_sweep_ns", "ns"},
	{"dac.handle_probe_ns", "ns"},
	{"core.assign_ns", "ns"},
	{"lookup.sample_ns", "ns"},
	{"protocol.probes_per_op", "count"},
	{"protocol.rejections_per_op", "count"},
	{"media.store_put_ns", "ns"},
	{"media.store_put_allocs", "count"},
	{"media.seeded_store_ms", "ms"},
	{"node.lookup_span_us", "us"},
	{"node.probe_span_us", "us"},
	{"node.register_span_us", "us"},
	{"node.session_span_us", "us"},
	{"node.request_p99_ms", "ms"},
	{"node.lifecycle_us", "us"},
	{"node.unattributed_share", "ratio"},
	{"latency_p90_ms", "ms"},
	{"trace.throughput_per_s", "1/s"},
	{"host.chase_ns", "ns"},
}

// requestChildren are the spans a node.request span is made of, one after
// the other: the lookup, each probe, the session, the registration.
var requestChildren = []string{"node.lookup", "node.probe", "node.session", "node.register"}

// layerValues assembles a traced run's per-layer metrics: the probes'
// costs as they are, each of the workload's counts X as X_per_op, each
// request child span Y as its median Y_span_us.
func layerValues(t tally, tr *tracer, m timings, probes map[string]float64) map[string]float64 {
	v := probes
	v["trace.throughput_per_s"] = m.throughput
	v["host.chase_ns"] = m.chaseNS
	v["latency_p90_ms"] = quantile(inUnit(t.lat, time.Millisecond), 0.9)
	for name, count := range t.counts {
		v[name+"_per_op"] = count / float64(t.ops)
	}
	if virtual := t.counts["clock.virtual_ms"]; virtual > 0 {
		v["clock.wall_ms_per_virtual_ms"] = float64(tr.total("scenario.Run").Milliseconds()) / virtual
	}
	var children time.Duration
	for _, span := range requestChildren {
		v[span+"_span_us"] = median(inUnit(tr.durations(span), time.Microsecond))
		children += tr.total(span)
	}
	v["node.request_p99_ms"] = quantile(inUnit(tr.durations("node.request"), time.Millisecond), 0.99)
	if request := tr.total("node.request"); request > 0 {
		v["node.unattributed_share"] = 1 - float64(children)/float64(request)
	}
	return v
}

// attribution is one row of a workload's attribution table: how often a
// step happens per op, what one occurrence costs by its layer probe, and
// the span metric (a median) that measured it in the trace, if any.
type attribution struct {
	step     string
	count    func(v map[string]float64) float64
	costUS   func(v map[string]float64) float64
	measured string
}

func once(map[string]float64) float64 { return 1 }

// attempts is lookups (and admission sweeps) per op: one per attempt.
func attempts(v map[string]float64) float64 { return 1 + v["protocol.rejections_per_op"] }

func metric(name string, scale float64) func(map[string]float64) float64 {
	return func(v map[string]float64) float64 { return v[name] * scale }
}

var attributions = map[string][]attribution{
	"stream-bulk": {
		{"segment frame write+read+decode", once, metric("transport.segment_frame_us", 1), ""},
		{"media.Store put", once, metric("media.store_put_ns", 1e-3), ""},
	},
	"admit-loop": {
		{"directory lookup", attempts, metric("directory.lookup_us", 1), "node.lookup_span_us"},
		{"probe exchange", metric("protocol.probes_per_op", 1), metric("transport.call_us", 1), "node.probe_span_us"},
		{"session: dial, trigger, receive", once, metric("", 0), "node.session_span_us"},
		{"registration", once, metric("directory.register_us", 0.5), "node.register_span_us"},
		{"admission sweep", attempts, metric("protocol.attempt_sweep_ns", 1e-3), ""},
		{"OTS assignment", once, metric("core.assign_ns", 1e-3), ""},
		{"node lifecycle, outside the request", once, metric("node.lifecycle_us", 1), ""},
	},
	"crowd-vnet": {
		{"virtual dial", metric("netx.dials_per_op", 1), metric("netx.vnet_dial_ns", 1e-3), ""},
		{"admission sweep", attempts, metric("protocol.attempt_sweep_ns", 1e-3), ""},
	},
	"sim-day": {
		{"engine event", metric("sim.events_per_op", 1), metric("sim.event_ns", 1e-3), ""},
		{"supplier probe decision", metric("protocol.probes_per_op", 1), metric("dac.handle_probe_ns", 1e-3), ""},
		{"candidate sample", attempts, metric("lookup.sample_ns", 1e-3), ""},
		{"admission sweep", attempts, metric("protocol.attempt_sweep_ns", 1e-3), ""},
	},
}

// printAttribution prints, per step, occurrences per op × the probe's cost
// beside what the trace measured, and the share of the op's CPU time the
// predictions leave unattributed — the gap is where the next optimisation
// lives, or where the benchmark lacks a seam.
func printAttribution(w io.Writer, workload string, v map[string]float64, cpuUSPerOp float64) {
	fmt.Fprintf(w, "\nattribution for %s (traced: %.4g ops/s, %.4g CPU-us/op)\n",
		workload, v["trace.throughput_per_s"], cpuUSPerOp)
	fmt.Fprintf(w, "  %-36s %10s %12s %14s %14s\n", "step", "per op", "probe us", "predicted us", "measured us")
	var predicted float64
	for _, a := range attributions[workload] {
		count, cost := a.count(v), a.costUS(v)
		measured := "-"
		if a.measured != "" {
			measured = fmt.Sprintf("%.4g", v[a.measured]*count)
		}
		predicted += count * cost
		fmt.Fprintf(w, "  %-36s %10.4g %12.4g %14.4g %14s\n", a.step, count, cost, count*cost, measured)
	}
	fmt.Fprintf(w, "  predicted %.4g of %.4g CPU-us/op: %.1f%% unattributed\n",
		predicted, cpuUSPerOp, 100*(1-predicted/cpuUSPerOp))
	if share, ok := v["node.unattributed_share"]; ok {
		fmt.Fprintf(w, "  request time outside its lookup, probe, session and register spans: %.1f%%\n", 100*share)
	}
}

// benchSpec is BENCHMARK.json, the one place bounds and run length live.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root under run.sh) or its parent (under `go run .` in bench/).
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}
