// Command p2pscen runs cataloged cluster scenarios — declarative
// RFC 8867-style network/churn stresses of the live overlay — on the
// deterministic virtual substrate, prints each run's summary and invariant
// verdict, and optionally emits the sampled series as CSV.
//
// Examples:
//
//	p2pscen -list
//	p2pscen flash-crowd churn-storm
//	p2pscen -all
//	p2pscen -csv flash-crowd.csv -seed 7 flash-crowd
//	p2pscen -backend chord flash-crowd      (re-run any scenario on chord discovery)
//	p2pscen -shards 3 flash-crowd           (re-run any scenario on a 3-shard directory)
//	p2pscen -cpuprofile cpu.prof -memprofile mem.prof flash-crowd
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p2pstream/internal/profiling"
	"p2pstream/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "list the scenario catalog and exit")
	all := flag.Bool("all", false, "run every cataloged scenario")
	csvPath := flag.String("csv", "", "write the (last) run's series to this CSV file")
	seed := flag.Int64("seed", 0, "override the scenario's random seed (0 keeps it)")
	backend := flag.String("backend", "", "override the discovery backend for named runs: directory or chord (empty keeps each scenario's own)")
	shards := flag.Int("shards", -1, "override DirectoryShards for named runs (-1 keeps each scenario's own; ignored under chord)")
	profiles := profiling.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, spec := range scenario.Catalog() {
			fmt.Printf("%-22s [%s] %s\n", spec.Name, spec.Discovery, spec.Stresses)
		}
		// The population-scale families: runnable by name, excluded from
		// -all (the 100k crowd and the 1k chord ring take minutes, not
		// seconds).
		for _, spec := range scenario.ScaleCatalog() {
			fmt.Printf("%-22s [%s] %s\n", spec.Name, spec.Discovery, spec.Stresses)
		}
		for _, spec := range scenario.ChordScaleCatalog() {
			fmt.Printf("%-22s [%s] %s\n", spec.Name, spec.Discovery, spec.Stresses)
		}
		return
	}
	names := flag.Args()
	if *all {
		if len(names) > 0 {
			fatal(fmt.Errorf("-all runs the whole catalog; drop the named scenarios %v", names))
		}
		for _, spec := range scenario.Catalog() {
			names = append(names, spec.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no scenario named; try -list, -all, or: p2pscen <name>..."))
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	failed := 0
	var last *scenario.Report
	for _, name := range names {
		spec, ok := scenario.ByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q; -list shows the catalog", name))
		}
		if *seed != 0 {
			spec.Seed = *seed
		}
		if *backend != "" {
			b, err := scenario.ParseBackend(*backend)
			if err != nil {
				fatal(err)
			}
			spec.Discovery = b
			if b != scenario.BackendChord {
				// A directory-backed run cannot also crash the directory;
				// scrub decoy-kill events a chord spec may carry. (Shard
				// churn of a natively sharded spec stays — the shards run.)
				spec.KeepDirectory = false
				kept := spec.Churn[:0]
				for _, ev := range spec.Churn {
					if ev.Node != scenario.DirectoryHost ||
						scenario.ShardHostIndex(ev.Node, spec.DirectoryShards) >= 0 {
						kept = append(kept, ev)
					}
				}
				spec.Churn = kept
			} else {
				// A chord run has no registry shards to crash or rebirth;
				// scrub the shard-targeted churn a sharded spec carries.
				kept := spec.Churn[:0]
				for _, ev := range spec.Churn {
					if scenario.ShardHostIndex(ev.Node, spec.DirectoryShards) < 0 {
						kept = append(kept, ev)
					}
				}
				spec.Churn = kept
				spec.DirectoryShards = 0
				// No registry means no resharding controller either: drop an
				// elastic spec's autoscaler and the expectations that only
				// its epoch flips can satisfy.
				spec.Autoscale = nil
				spec.Expect.MinEpochFlips = 0
				spec.Expect.MaxFlipConvergence = 0
				spec.Expect.NoLostRegistrations = false
				spec.Expect.NoFailedShardLegs = false
			}
		}
		if *shards >= 0 {
			// Shrinking the shard set may strand shard-targeted churn;
			// scrub events naming shard hosts the new count no longer runs.
			kept := spec.Churn[:0]
			for _, ev := range spec.Churn {
				if idx := scenario.ShardHostIndex(ev.Node, spec.DirectoryShards); idx >= 0 && (*shards < 2 || idx >= *shards) {
					continue
				}
				kept = append(kept, ev)
			}
			spec.Churn = kept
			spec.DirectoryShards = *shards
		}
		start := time.Now()
		report, err := scenario.Run(spec)
		if err != nil {
			fatal(err)
		}
		last = report
		fmt.Printf("%s (wall %v)\n", report.Summary(), time.Since(start).Round(time.Millisecond))
		if err := report.Check(); err != nil {
			fmt.Printf("  INVARIANT VIOLATION: %v\n", err)
			failed++
		} else {
			fmt.Println("  invariants ok")
		}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if *csvPath != "" && last != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := last.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p2pscen:", err)
	os.Exit(2)
}
