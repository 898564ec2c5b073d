// Livestream: an end-to-end run of the live overlay inside one process,
// on the public Overlay API.
//
// It starts a directory server and four seed supplying peers with the
// paper's Figure 1 class mix (1, 2, 3, 3), then has a requesting peer run
// the real protocol over TCP loopback: directory lookup, class-ordered
// probing, OTS_p2p assignment, rate-paced multi-supplier streaming, and
// playback verification. The freshly served peer then supplies a second
// requester — the system grows itself. Everything is context-driven: one
// deadline bounds each streaming request end to end.
//
// Run with: go run ./examples/livestream
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"p2pstream"
)

func main() {
	// A small, fast media item: 80 segments, δt = 10ms (a class-1 supplier
	// transmits one segment every 20ms).
	file := &p2pstream.MediaFile{Name: "popular-video", Segments: 80, SegmentBytes: 2048, SegmentTime: 10 * time.Millisecond}

	dirSrv := p2pstream.NewDirectoryServer(1)
	dirAddr, err := dirSrv.Start(nil, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer dirSrv.Close()
	fmt.Printf("directory on %s\n", dirAddr)

	// One Overlay wires every peer: discovery backend, node lifecycle,
	// protocol tuning. Close tears the whole cluster down.
	ov, err := p2pstream.NewOverlay(file,
		p2pstream.WithDirectory(dirAddr),
		p2pstream.WithIdleTimeout(500*time.Millisecond),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 100 * time.Millisecond, Factor: 2}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer ov.Close()

	ctx := context.Background()
	var seeds []*p2pstream.Node
	for i, class := range []p2pstream.Class{1, 2, 3, 3} {
		id := fmt.Sprintf("seed%d", i+1)
		n, err := ov.Seed(ctx, p2pstream.OverlayPeer{ID: id, Class: class})
		if err != nil {
			log.Fatal(err)
		}
		seeds = append(seeds, n)
		fmt.Printf("%s: class-%d supplier on %s\n", id, class, n.Addr())
	}

	stream := func(id string, class p2pstream.Class) {
		n, err := ov.Requester(ctx, p2pstream.OverlayPeer{ID: id, Class: class, Seed: time.Now().UnixNano()})
		if err != nil {
			log.Fatal(err)
		}
		// The context deadline bounds the whole request: lookup, probes,
		// session streams, post-session registration.
		reqCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		report, err := n.RequestUntilAdmitted(reqCtx, "", 20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (class-%d) admitted after %d rejection(s)\n", id, class, report.Rejections)
		fmt.Printf("  suppliers:")
		for _, s := range report.Suppliers {
			fmt.Printf(" %s(%v)", s.ID, s.Class)
		}
		fmt.Println()
		fmt.Printf("  %d bytes in %v\n", report.Bytes, report.Duration.Round(time.Millisecond))
		fmt.Printf("  buffering delay: theoretical %v, measured %v\n",
			report.TheoreticalDelay, report.MeasuredDelay.Round(time.Millisecond))
		if report.Report.Continuous() {
			fmt.Println("  playback: continuous — no stalls")
		} else {
			fmt.Printf("  playback: %d stalls\n", report.Report.Stalls)
		}
	}

	// First session: class-1 requester, served by all four seeds
	// (R0/2 + R0/4 + R0/8 + R0/8 = R0), delay 4·δt.
	stream("peer1", 1)

	// The system has grown: peer1 (class-1) now supplies. A second peer
	// streams from the enlarged supplier set.
	stream("peer2", 1)

	for _, s := range seeds {
		st := s.Stats()
		fmt.Printf("%s stats: %d probes served, %d sessions supplied, %d reminders kept\n",
			s.ID(), st.Probes, st.Sessions, st.Reminders)
	}
}
