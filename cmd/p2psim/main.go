// Command p2psim runs the paper's evaluation (Section 5): one whole-system
// simulation by default, or any of the paper's figures and tables, the
// ablations and the replication, all from one base configuration.
//
// Examples:
//
//	p2psim -policy ndac -pattern 4     # one run under NDAC_p2p, arrival Pattern 4
//	p2psim -exp fig4                   # Figure 4 at the paper's scale
//	p2psim -exp all -out results       # every paper artifact, CSVs under results/
//	p2psim -exp all-ext -requesters 5000 -seeds 50 -window 36h -horizon 72h
//
// The flags set the base config of every experiment: with none, it is the
// paper's (100 seeds, 50,000 requesters over 72 h, 144 h simulated). Each
// figure then sets the policy, pattern and parameter it plots itself.
// Reports go to stdout; with -out, their raw series are written as CSV files
// under the output directory, one subdirectory per experiment.
//
// -cpuprofile and -memprofile write pprof profiles of the experiments
// themselves (not of flag parsing or report printing).
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/dac"
	"p2pstream/internal/experiments"
	"p2pstream/internal/profiling"
	"p2pstream/internal/system"
)

func main() {
	cfg := system.DefaultConfig()
	exp := flag.String("exp", "run", "experiment: 'run' (one simulation), 'all' (the paper's artifacts), 'all-ext' (and the ablations and replication) or one ID")
	out := flag.String("out", "", "write every report's CSV series under this directory (default: print only)")
	policy := flag.String("policy", "dac", "admission policy: dac or ndac")
	pattern := flag.Int("pattern", 2, "arrival pattern 1-4")
	flag.IntVar(&cfg.NumRequesters, "requesters", cfg.NumRequesters, "number of requesting peers")
	flag.IntVar(&cfg.NumSeeds, "seeds", cfg.NumSeeds, "number of seed supplying peers")
	flag.IntVar(&cfg.M, "m", cfg.M, "candidates probed per request (M)")
	flag.DurationVar(&cfg.TOut, "tout", cfg.TOut, "idle elevation timeout (T_out)")
	flag.DurationVar(&cfg.Backoff.Base, "tbkf", cfg.Backoff.Base, "base backoff (T_bkf)")
	flag.IntVar(&cfg.Backoff.Factor, "ebkf", cfg.Backoff.Factor, "backoff exponent (E_bkf)")
	flag.DurationVar(&cfg.SessionDuration, "session", cfg.SessionDuration, "streaming session length (show time)")
	flag.DurationVar(&cfg.ArrivalWindow, "window", cfg.ArrivalWindow, "first-request arrival window")
	flag.DurationVar(&cfg.Horizon, "horizon", cfg.Horizon, "simulated time")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	profiles := profiling.Register(flag.CommandLine)
	flag.Parse()

	switch *policy {
	case "dac":
		cfg.Policy = dac.DAC
	case "ndac":
		cfg.Policy = dac.NDAC
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	cfg.Pattern = arrival.Pattern(*pattern)

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	reports, err := experiments.NewRunner(cfg).Run(*exp)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if err := stopProfiles(); err != nil {
		fatal(err)
	}

	for _, rep := range reports {
		fmt.Printf("==== %s: %s ====\n\n%s\n", rep.ID, rep.Title, rep.Text)
		if *out == "" {
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(rep.CSV)) {
			path := filepath.Join(*out, rep.ID, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path, []byte(rep.CSV[name]), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	fmt.Printf("completed %d experiment(s) in %v\n", len(reports), wall.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p2psim: %v\n", err)
	os.Exit(1)
}
