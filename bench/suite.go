package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// environment is recorded with every results file, so a number can be
// traced back to what produced it.
type environment struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"load_avg_1min"`
	Quick      bool    `json:"quick,omitempty"`
}

// suiteRun is one child process's result.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	runResult
}

// summary is one workload × metric over the repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// results is the file a suite writes and -compare reads.
type results struct {
	Env     environment                   `json:"env"`
	Runs    []suiteRun                    `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload → metric
	Failed  map[string][2]int             `json:"failed"`  // workload → failed, attempted
}

// loadAvg1 reads the 1-minute load average (0 where /proc has none).
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	avg, _ := strconv.ParseFloat(fields[0], 64) // malformed reads as 0: nothing to warn about
	return avg
}

// warnIfLoaded says so when something else is already using the machine.
func warnIfLoaded() {
	if avg, n := loadAvg1(), runtime.NumCPU(); avg > float64(n) {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average %.2f exceeds %d CPUs; timings will be noisy\n", avg, n)
	}
}

// commit names the checked-out commit, where there is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload of BENCHMARK.json in a child process of its
// own (so CPU time, allocations and peak RSS are per workload), repeats
// the set `runs` times with consecutive seeds, prints every metric by name
// and unit, and writes the results file.
func runSuite(seed int64, seconds float64, traced, quick bool, runs int, out string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	if out == "" {
		out = filepath.Join(outDir, "results.json")
		if traced {
			out = filepath.Join(outDir, "results-trace.json")
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{
		Env: environment{
			Seed: seed, Commit: commit(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg1: loadAvg1(), Quick: quick,
		},
		Summary: make(map[string]map[string]summary),
		Failed:  make(map[string][2]int),
	}
	for r := 0; r < runs; r++ {
		for _, w := range spec.Workloads {
			args := []string{
				"--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(r), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0",
			}
			if traced {
				args[len(args)-1] = "1"
			}
			if quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			run := suiteRun{Workload: w.Name, Seed: seed + int64(r), Traced: traced}
			if err := json.Unmarshal(lines[len(lines)-1], &run.runResult); err != nil {
				return fmt.Errorf("%s: result line: %w", w.Name, err)
			}
			res.Runs = append(res.Runs, run)
			f := res.Failed[w.Name]
			res.Failed[w.Name] = [2]int{f[0] + run.Failed, f[1] + run.Attempted}
			if res.Summary[w.Name] == nil {
				res.Summary[w.Name] = make(map[string]summary)
			}
			for name, v := range run.Metrics {
				s := res.Summary[w.Name][name]
				s.Unit = v.Unit
				s.Values = append(s.Values, v.Value)
				res.Summary[w.Name][name] = s
			}
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, w := range spec.Workloads {
		f := res.Failed[w.Name]
		fmt.Printf("%s  (%s)\n  %-32s %d of %d\n", w.Name, w.Why, "failed", f[0], f[1])
		for _, d := range defs {
			s := res.Summary[w.Name][d.name]
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			res.Summary[w.Name][d.name] = s
			fmt.Printf("  %-32s %14.6g %-6s", d.name, s.Median, s.Unit)
			if runs > 1 {
				fmt.Printf("  [q1 %.6g, q3 %.6g]", s.Q1, s.Q3)
			}
			fmt.Println()
		}
	}
	if traced {
		printOverhead(spec, res, filepath.Join(filepath.Dir(out), "results.json"))
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// printOverhead reports the tracing overhead per workload — traced
// throughput over untraced — against the untraced results file of an
// earlier suite, when there is one.
func printOverhead(spec *benchSpec, traced results, untracedPath string) {
	untraced, err := readResults(untracedPath)
	if err != nil {
		fmt.Printf("trace.overhead_ratio: no untraced results at %s to compare with\n", untracedPath)
		return
	}
	for _, w := range spec.Workloads {
		if base := untraced.Summary[w.Name]["throughput_per_s"].Median; base > 0 {
			fmt.Printf("%-12s trace.overhead_ratio %.3f (traced / untraced throughput_per_s)\n",
				w.Name, traced.Summary[w.Name]["trace.throughput_per_s"].Median/base)
		}
	}
}

func readResults(path string) (results, error) {
	var res results
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles applies each end-to-end metric's bound from BENCHMARK.json
// to two results files, A the baseline and B the candidate, one row per
// workload × metric. A row is unresolved when the spread between repeated
// runs (interquartile range over the baseline's median) exceeds the bound
// and the two sets of runs overlap. It fails on any worse row and on a
// higher failed ratio.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two results files, got %d", len(paths))
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-12s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		fa, fb := a.Failed[w.Name], b.Failed[w.Name]
		if ratio(fb) > ratio(fa) {
			bad++
			fmt.Printf("%-12s failed ratio rose from %d/%d to %d/%d\n", w.Name, fa[0], fa[1], fb[0], fb[1])
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.Summary[w.Name][m.Name], b.Summary[w.Name][m.Name]
			if len(sa.Values) == 0 || len(sb.Values) == 0 || sa.Median == 0 {
				bad++
				fmt.Printf("%-12s %-18s missing from one of the files\n", w.Name, m.Name)
				continue
			}
			// worse > 0 means B is worse than A, as a share of A.
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(sa.Q3-sa.Q1, sb.Q3-sb.Q1) / sa.Median
			verdict := "same"
			switch {
			case noise > m.Bound && !disjoint(sa.Values, sb.Values):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, missing or with more failures", bad)
	}
	return nil
}

func ratio(f [2]int) float64 {
	if f[1] == 0 {
		return 0
	}
	return float64(f[0]) / float64(f[1])
}

// disjoint reports whether every value of one set lies on one side of
// every value of the other.
func disjoint(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}
