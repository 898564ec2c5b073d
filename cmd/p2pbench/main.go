// Command p2pbench regenerates the paper's evaluation artifacts: every
// figure (4-9) and Table 1, plus the worked examples of Figures 1 and 3.
//
// Usage:
//
//	p2pbench [-exp all|fig1|fig3|fig4|fig5|fig6|table1|fig7|fig8a|fig8b|fig9]
//	         [-scale full|reduced] [-out results]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Reports are printed to stdout; raw series are written as CSV files under
// the output directory (one subdirectory per experiment).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p2pstream/internal/experiments"
	"p2pstream/internal/profiling"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: 'all' (paper artifacts), 'all-ext' (paper + ablations/replication), or one of "+
		strings.Join(append(experiments.IDs(), experiments.ExtensionIDs()...), ", "))
	scaleName := flag.String("scale", "full", "workload scale: 'full' (paper: 50,100 peers, 144h) or 'reduced'")
	out := flag.String("out", "results", "output directory for CSV series ('' to skip writing)")
	profiles := profiling.Register(flag.CommandLine)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "full":
		scale = experiments.FullScale
	case "reduced":
		scale = experiments.ReducedScale
	default:
		fmt.Fprintf(os.Stderr, "p2pbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		fatal(err)
	}
	runner := experiments.NewRunner(scale)
	var reports []*experiments.Report
	start := time.Now()
	switch *exp {
	case "all":
		var err error
		reports, err = runner.All()
		if err != nil {
			fatal(err)
		}
	case "all-ext":
		var err error
		reports, err = runner.AllWithExtensions()
		if err != nil {
			fatal(err)
		}
	default:
		rep, err := runner.Run(*exp)
		if err != nil {
			fatal(err)
		}
		reports = []*experiments.Report{rep}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}

	for _, rep := range reports {
		fmt.Printf("==== %s: %s ====\n\n%s\n", rep.ID, rep.Title, rep.Text)
		if *out == "" {
			continue
		}
		dir := filepath.Join(*out, rep.ID)
		if len(rep.CSV) > 0 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		for _, name := range rep.SortedCSVNames() {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(rep.CSV[name]), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	fmt.Printf("completed %d experiment(s) at %s scale in %v\n", len(reports), scale.Name, time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
	os.Exit(1)
}
