// Quickstart: the paper's results in a few dozen lines.
//
//  1. OTS_p2p — assign media segments to heterogeneous suppliers with
//     minimum buffering delay (Theorem 1: n·δt).
//  2. DAC_p2p — simulate the whole self-growing system and watch
//     differentiated admission amplify capacity.
//  3. The live overlay — one Overlay entrypoint wires a directory, seeds
//     and a requester on a deterministic virtual substrate and streams a
//     real session, context-first.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"p2pstream"
)

func main() {
	// --- 1. Optimal media data assignment ---------------------------------
	suppliers := []p2pstream.Supplier{
		{ID: "Ps1", Class: 1}, // offers R0/2
		{ID: "Ps2", Class: 2}, // offers R0/4
		{ID: "Ps3", Class: 3}, // offers R0/8
		{ID: "Ps4", Class: 3}, // offers R0/8  -> sum = R0
	}
	a, err := p2pstream.Assign(suppliers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("OTS_p2p assignment (window of", a.Window, "segments):")
	for i, s := range a.Suppliers {
		fmt.Printf("  %s (%v) transmits segments %v\n", s.ID, s.Class, a.Segments[i])
	}
	fmt.Printf("buffering delay: %d*dt (Theorem 1 minimum for %d suppliers)\n\n",
		a.DelaySlots(), len(suppliers))

	// --- 2. Whole-system simulation ----------------------------------------
	cfg := p2pstream.DefaultSimConfig()
	cfg.NumRequesters = 5000 // scaled down from the paper's 50,000 for speed
	cfg.NumSeeds = 50
	cfg.ArrivalWindow = 36 * time.Hour
	cfg.Horizon = 72 * time.Hour
	res, err := p2pstream.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	finalCap, _ := res.Capacity.Last()
	fmt.Printf("DAC_p2p simulation: %d+%d peers, %v simulated\n",
		cfg.NumSeeds, cfg.NumRequesters, cfg.Horizon)
	fmt.Printf("capacity grew to %.0f of max %d (%.1f%%)\n",
		finalCap, res.MaxCapacity, 100*finalCap/float64(res.MaxCapacity))
	for c := 0; c < len(res.Arrived); c++ {
		rate, _ := res.AdmissionRate[c].Last()
		fmt.Printf("  class %d: admission %.1f%%, avg rejections %.2f, avg delay %.2f*dt\n",
			c+1, rate, res.AvgRejections[c], res.AvgDelaySlots[c])
	}

	// --- 3. A live session through the Overlay entrypoint ------------------
	// The same node code that runs over real TCP streams here inside an
	// in-memory virtual network under a virtual clock: deterministic, and
	// milliseconds of wall time for a whole cluster session.
	clk := p2pstream.NewVirtualClock()
	stop := clk.AutoRun()
	defer stop()
	vnet := p2pstream.NewVirtualNetwork(clk, 1)
	vnet.SetDefaultLink(p2pstream.LinkConfig{Latency: 300 * time.Microsecond})

	file := &p2pstream.MediaFile{Name: "v", Segments: 16, SegmentBytes: 256, SegmentTime: 4 * time.Millisecond}
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory("dir:7000"),
		p2pstream.WithClock(clk),
		p2pstream.WithNetworkFor(func(id string) p2pstream.Network { return vnet.Host(id) }),
		p2pstream.WithIdleTimeout(50*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	dir := p2pstream.NewDirectoryServer(1)
	if _, err := dir.Start(vnet.Host("dir"), "dir:7000"); err != nil {
		log.Fatal(err)
	}
	defer dir.Close()

	ctx := context.Background()
	for _, id := range []string{"s1", "s2"} {
		if _, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: 1}); err != nil {
			log.Fatal(err)
		}
	}
	req, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r1", Class: 1})
	if err != nil {
		log.Fatal(err)
	}
	report, err := req.RequestUntilAdmitted(ctx, "", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive overlay: r1 served by %d suppliers, %d bytes, buffering %v, supplying=%v\n",
		len(report.Suppliers), report.Bytes, report.MeasuredDelay, req.Supplying())
}
