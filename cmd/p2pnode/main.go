// Command p2pnode runs one live peer of the streaming overlay, built on
// the public p2pstream.Overlay entrypoint.
//
// A seed peer (possesses the media, supplies immediately):
//
//	p2pnode -id seed1 -class 1 -seed-peer -dir 127.0.0.1:7000
//
// A requesting peer (requests the stream, plays it back, then supplies):
//
//	p2pnode -id peer1 -class 2 -dir 127.0.0.1:7000
//
// Against a sharded directory (see p2pdir -shards), list every shard in
// shard order; registrations route to the owning shard by consistent
// hashing and candidate lookups fan out across all of them:
//
//	p2pnode -id peer1 -class 2 -dir-addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// With -discovery chord the overlay needs no directory server at all:
// supplying peers form a wire-level Chord ring. The first seed founds the
// ring; everyone else names any member's chord endpoint:
//
//	p2pnode -id seed1 -class 1 -seed-peer -discovery chord -chord-listen 127.0.0.1:7100
//	p2pnode -id peer1 -class 2 -discovery chord -chord-bootstrap 127.0.0.1:7100
//
// A requesting peer runs the overlay's one retry loop
// (Node.RequestUntilAdmitted), at most -attempts attempts: a rejection
// backs off on the paper's T_bkf·E_bkf^(i-1) schedule, and a supplier that
// dies mid-session, a failed lookup or a dead shard is retried with a
// fresh admission that resumes the partial download, after T_bkf·E_bkf^(k-1)
// for the k-th such failure in a row: with the defaults below a directory
// that stays down is retried 0.5 s, 1 s, 2 s, ... apart.
//
// The whole request path is context-driven: Ctrl-C cancels an in-flight
// request (probes, session streams and discovery RPCs abort) instead of
// leaving the process wedged, and -timeout bounds the request end to end.
//
// The media item is synthetic (deterministic content, CBR) and scaled so a
// session finishes in seconds; -segments and -dt control the size.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p2pstream"
)

func main() {
	id := flag.String("id", "", "unique peer name (required)")
	class := flag.Int("class", 2, "bandwidth class (1 = R0/2, 2 = R0/4, ...)")
	numClasses := flag.Int("classes", 4, "number of classes K")
	discovery := flag.String("discovery", "directory", "discovery backend: directory or chord")
	dirAddr := flag.String("dir", "127.0.0.1:7000", "directory server address (directory backend)")
	dirAddrs := flag.String("dir-addrs", "", "comma-separated sharded-directory addresses in shard order (directory backend; overrides -dir)")
	dirEpochs := flag.Bool("dir-epochs", false, "follow resharding epoch pushes from an elastic directory deployment (p2pdir -autoscale; needs -dir-addrs)")
	bootstrap := flag.String("chord-bootstrap", "", "comma-separated chord endpoints of ring members (chord backend; empty founds a new ring)")
	chordListen := flag.String("chord-listen", "127.0.0.1:0", "chord endpoint to listen on (chord backend)")
	seedPeer := flag.Bool("seed-peer", false, "start with the complete file and supply immediately")
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on")
	segments := flag.Int("segments", 120, "number of media segments")
	dt := flag.Duration("dt", 50*time.Millisecond, "segment playback time (delta t)")
	objects := flag.String("objects", "", "comma-separated object names for a multi-object overlay (each an item of -segments segments; empty runs the single default file)")
	held := flag.String("held", "", "comma-separated objects a multi-object seed holds (empty = all of -objects)")
	request := flag.String("request", "", "object a multi-object requester streams (empty = the first of -objects)")
	cacheBudget := flag.Int64("cache-budget", 0, "library byte budget per peer; exceeding it evicts the LRU object (0 = unbounded)")
	sessionSlots := flag.Int("session-slots", 0, "concurrent supplying sessions per peer across objects (0 = one)")
	m := flag.Int("m", 8, "candidates probed per request")
	tout := flag.Duration("tout", 2*time.Second, "idle elevation timeout")
	attempts := flag.Int("attempts", 10, "max admission attempts before giving up")
	timeout := flag.Duration("timeout", 0, "overall deadline for the streaming request (0 = none)")
	ndac := flag.Bool("ndac", false, "use the NDAC_p2p baseline when supplying")
	rngSeed := flag.Int64("rng", time.Now().UnixNano(), "admission randomness seed")
	flag.Parse()

	if *id == "" {
		fmt.Fprintln(os.Stderr, "p2pnode: -id is required")
		os.Exit(2)
	}
	policy := p2pstream.DAC
	if *ndac {
		policy = p2pstream.NDAC
	}

	// Ctrl-C / SIGTERM cancel the context; an in-flight request aborts
	// cleanly (probes, streams and discovery RPCs all honor it).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []p2pstream.OverlayOption{
		p2pstream.WithClasses(p2pstream.Class(*numClasses)),
		p2pstream.WithPolicy(policy),
		p2pstream.WithProbeFanout(*m),
		p2pstream.WithIdleTimeout(*tout),
		p2pstream.WithBackoff(p2pstream.BackoffConfig{Base: 500 * time.Millisecond, Factor: 2}),
		p2pstream.WithSeed(*rngSeed),
	}
	switch *discovery {
	case "directory":
		if *dirAddrs != "" {
			// Every peer of one deployment must list the same shard
			// addresses in the same order: the consistent-hash ring maps
			// supplier keys to indices of this list. Even a single-entry
			// list goes through the sharded client: -dir-addrs always
			// buys the lease-style re-registration that repopulates a
			// crashed-and-reborn server.
			addrs := splitList(*dirAddrs)
			opts = append(opts, p2pstream.WithShardedDirectory(p2pstream.ShardedDirectoryConfig{
				Addrs: addrs, WatchEpochs: *dirEpochs,
			}))
			if *dirEpochs {
				fmt.Printf("p2pnode %s: elastic sharded directory, %d initial shards\n", *id, len(addrs))
			} else {
				fmt.Printf("p2pnode %s: sharded directory, %d shards\n", *id, len(addrs))
			}
		} else {
			if *dirEpochs {
				fmt.Fprintln(os.Stderr, "p2pnode: -dir-epochs needs -dir-addrs (the elastic deployment's initial shard list)")
				os.Exit(2)
			}
			opts = append(opts, p2pstream.WithDirectory(*dirAddr))
		}
	case "chord":
		opts = append(opts, p2pstream.WithChord(p2pstream.ChordDiscoveryConfig{
			Bootstrap: splitList(*bootstrap),
		}))
	default:
		fmt.Fprintf(os.Stderr, "p2pnode: unknown -discovery %q (want directory or chord)\n", *discovery)
		os.Exit(2)
	}

	mediaItem := func(name string) *p2pstream.MediaFile {
		return &p2pstream.MediaFile{
			Name:         name,
			Segments:     *segments,
			SegmentBytes: 4096,
			SegmentTime:  *dt,
		}
	}
	var file *p2pstream.MediaFile
	if names := splitList(*objects); len(names) > 0 {
		catalog := make([]*p2pstream.MediaFile, len(names))
		for i, name := range names {
			catalog[i] = mediaItem(name)
		}
		opts = append(opts, p2pstream.WithLibrary(catalog...))
		if *cacheBudget > 0 {
			opts = append(opts, p2pstream.WithCacheBudget(*cacheBudget))
		}
		if *sessionSlots > 0 {
			opts = append(opts, p2pstream.WithSessionSlots(*sessionSlots))
		}
	} else {
		file = mediaItem("popular-video")
	}
	ov, err := p2pstream.NewOverlay(file, opts...)
	if err != nil {
		fatal(err)
	}
	defer ov.Close()

	peer := p2pstream.OverlayPeer{
		ID:                  *id,
		Class:               p2pstream.Class(*class),
		ListenAddr:          *listen,
		DiscoveryListenAddr: *chordListen,
		Held:                splitList(*held),
	}
	var n *p2pstream.Node
	if *seedPeer {
		n, err = ov.Seed(ctx, peer)
	} else {
		n, err = ov.Requester(ctx, peer)
	}
	if err != nil {
		fatal(err)
	}
	if ep := ov.DiscoveryEndpoint(*id); ep != "" {
		fmt.Printf("p2pnode %s: chord endpoint %s\n", *id, ep)
	}
	fmt.Printf("p2pnode %s: class-%d, listening on %s\n", *id, *class, n.Addr())

	if !*seedPeer {
		reqCtx, cancel := ctx, context.CancelFunc(func() {})
		if *timeout > 0 {
			reqCtx, cancel = context.WithTimeout(ctx, *timeout)
		}
		report, err := n.RequestUntilAdmitted(reqCtx, *request, *attempts)
		cancel()
		switch {
		case err == nil:
		case report != nil:
			// Served, with only the post-session registration failing —
			// whether the owner shard refused or the cancellation/deadline
			// landed right then. The node holds the file and supplies; a
			// sharded client's lease re-registers it when the shard
			// returns. Don't discard a completed session.
			fmt.Printf("p2pnode: served, registration pending: %v\n", err)
		case errors.Is(err, context.Canceled):
			fmt.Println("p2pnode: request cancelled")
			return
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Println("p2pnode: request deadline exceeded")
			os.Exit(1)
		default:
			fatal(err)
		}
		fmt.Printf("admitted after %d rejection(s); %d suppliers:", report.Rejections, len(report.Suppliers))
		for _, s := range report.Suppliers {
			fmt.Printf(" %s(%v)", s.ID, s.Class)
		}
		fmt.Println()
		fmt.Printf("received %d bytes in %v\n", report.Bytes, report.Duration.Round(time.Millisecond))
		fmt.Printf("buffering delay: theoretical %v (n*dt), measured %v; playback %s\n",
			report.TheoreticalDelay, report.MeasuredDelay.Round(time.Millisecond), playbackStatus(report))
		fmt.Println("now supplying")
	}

	<-ctx.Done()
	fmt.Println("p2pnode: shutting down")
}

func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func playbackStatus(r *p2pstream.SessionReport) string {
	if r.Report.Continuous() {
		return "continuous (no stalls)"
	}
	return fmt.Sprintf("%d stalls", r.Report.Stalls)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "p2pnode: %v\n", err)
	os.Exit(1)
}
