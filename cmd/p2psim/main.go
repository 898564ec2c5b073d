// Command p2psim runs one whole-system simulation of the peer-to-peer
// streaming system and prints its headline metrics, optionally emitting the
// sampled series as CSV.
//
// Example (the paper's Figure 4(a) DAC curve):
//
//	p2psim -policy dac -pattern 2 -requesters 50000 -seeds 100
//
// -cpuprofile and -memprofile write pprof profiles of the simulation itself
// (not of flag parsing or report printing).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/dac"
	"p2pstream/internal/metrics"
	"p2pstream/internal/profiling"
	"p2pstream/internal/system"
)

func main() {
	cfg := system.DefaultConfig()
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
	csvPath := flag.String("csv", "", "write capacity/admission/delay series to this CSV file")
	chart := flag.Bool("chart", true, "print an ASCII capacity chart")
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
	res, err := system.Run(cfg)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if err := stopProfiles(); err != nil {
		fatal(err)
	}

	fmt.Printf("policy=%v pattern=%v peers=%d+%d horizon=%v (wall %v, %d events)\n",
		cfg.Policy, cfg.Pattern, cfg.NumSeeds, cfg.NumRequesters, cfg.Horizon, wall.Round(time.Millisecond), res.Events)
	last, _ := res.Capacity.Last()
	fmt.Printf("capacity: final %.0f of max %d (%.1f%%)\n", last, res.MaxCapacity, 100*last/float64(res.MaxCapacity))
	fmt.Printf("requests=%d probes=%d reminders=%d\n\n", res.TotalRequests, res.TotalProbes, res.TotalReminders)
	fmt.Printf("%-8s %-10s %-10s %-12s %-10s %-10s %-12s\n",
		"class", "arrived", "admitted", "admission%", "avg rej", "delay*dt", "avg wait")
	for c := 0; c < len(res.Arrived); c++ {
		rate, _ := res.AdmissionRate[c].Last()
		fmt.Printf("%-8d %-10d %-10d %-12.1f %-10.2f %-10.2f %-12v\n",
			c+1, res.Arrived[c], res.Admitted[c], rate, res.AvgRejections[c], res.AvgDelaySlots[c],
			res.AvgWait[c].Round(time.Minute))
	}

	if *chart {
		fmt.Println()
		fmt.Print(metrics.Chart("total system capacity", 64, 14, res.Capacity))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		series := append([]*metrics.Series{res.Capacity, res.OverallAdmissionRate}, res.AdmissionRate...)
		series = append(series, res.BufferingDelay...)
		if err := metrics.WriteCSV(f, series...); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p2psim: %v\n", err)
	os.Exit(1)
}
