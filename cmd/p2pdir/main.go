// Command p2pdir runs the directory service of the live streaming overlay
// (the Napster-style lookup service of Section 4.2, footnote 4).
//
// A single server:
//
//	p2pdir -listen 127.0.0.1:7000
//
// A sharded registry — one process per shard in production, or all shards
// in one process for local work — splits the registry by consistent
// hashing; shard i listens on the base port + i, and peers route with
// p2pnode's -dir-addrs:
//
//	p2pdir -listen 127.0.0.1:7000 -shards 3
//	p2pnode -id peer1 -class 2 -dir-addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// An elastic registry adds an in-process autoscaling controller
// (internal/reshard): sustained lookup load above the high-water mark
// spawns a shard on the next port and announces a new resharding epoch,
// sustained underload drains the coldest spawned shard back out. Peers
// follow the flips live with p2pnode's -dir-epochs:
//
//	p2pdir -listen 127.0.0.1:7000 -autoscale
//	p2pnode -id peer1 -class 2 -dir-addrs 127.0.0.1:7000 -dir-epochs
//
// The initial -shards servers are the stable bootstrap set and are never
// drained; the controller scales between that floor and -autoscale-max.
// With base port 0 (-listen 127.0.0.1:0) every shard, spawned ones too,
// binds a free port of its own; peers learn the bound addresses from the
// printed -dir-addrs line and from epoch pushes. On SIGINT or SIGTERM the
// process stops the controller, closes every live shard server (each
// reported as retired under -autoscale) and exits 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2pstream/internal/directory"
	"p2pstream/internal/observe"
	"p2pstream/internal/reshard"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to listen on (with -shards or -autoscale, the base: shard i adds i to the port, or binds a free port when the base is 0)")
	shards := flag.Int("shards", 1, "number of registry shards to serve from this process")
	seed := flag.Int64("seed", 1, "random seed for candidate sampling (shard i adds i)")
	autoscale := flag.Bool("autoscale", false, "run the elastic registry: an autoscaling controller grows and drains the shard set under lookup load (peers follow with p2pnode -dir-epochs)")
	asInterval := flag.Duration("autoscale-interval", 2*time.Second, "autoscaler load sampling period")
	asHigh := flag.Float64("autoscale-high", 50, "mean lookups per shard per interval that, sustained, add a shard")
	asLow := flag.Float64("autoscale-low", 5, "mean lookups per shard per interval that, sustained, drain the coldest spawned shard")
	asMax := flag.Int("autoscale-max", 8, "shard count ceiling under -autoscale")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "p2pdir: -shards %d, want >= 1\n", *shards)
		os.Exit(2)
	}
	// Shard i listens on the base port + i, or on a free port of its own
	// when the base is 0, so any mode that can run more than one shard
	// needs a numeric port; a plain single server takes -listen verbatim
	// (service names keep working).
	multi := *shards > 1 || *autoscale
	host, portStr, err := net.SplitHostPort(*listen)
	port, perr := strconv.Atoi(portStr)
	if multi && (err != nil || perr != nil) {
		fmt.Fprintf(os.Stderr, "p2pdir: -shards/-autoscale need a numeric base port, got -listen %q\n", *listen)
		os.Exit(2)
	}
	boot := func(i int, _ string) (*directory.Server, string, error) {
		srv := directory.NewServer(*seed + int64(i))
		addr := *listen
		if multi && port != 0 {
			addr = net.JoinHostPort(host, strconv.Itoa(port+i))
		}
		bound, err := srv.Start(nil, addr)
		return srv, bound, err
	}

	var elastic *reshard.Config
	if *autoscale {
		elastic = &reshard.Config{
			Interval:  *asInterval,
			HighWater: *asHigh,
			LowWater:  *asLow,
			MaxShards: *asMax,
			Retire: func(m reshard.Member) {
				fmt.Printf("p2pdir: retired %s (%s)\n", m.Name, m.Addr)
			},
			Observer: observe.Func(func(ev observe.Event) {
				switch ev.Type {
				case observe.EpochFlip:
					fmt.Printf("p2pdir: epoch %d: %d shards\n", ev.Epoch, ev.Count)
				case observe.ShardAdded:
					fmt.Printf("p2pdir: epoch %d: added %s\n", ev.Epoch, ev.Object)
				case observe.ShardDrained:
					fmt.Printf("p2pdir: epoch %d: drained %s (retires after grace)\n", ev.Epoch, ev.Object)
				}
			}),
		}
	}
	// The -shards servers are the advertised bootstrap set: one that
	// cannot listen is a process failure, not churn, and the deployment
	// pins them all so only spawned shards ever drain.
	dep, err := reshard.Deploy(*shards, boot, elastic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2pdir: %v\n", err)
		os.Exit(1)
	}
	defer dep.Close()
	addrs := dep.Addrs()[:*shards]
	for i, addr := range addrs {
		fmt.Printf("p2pdir: shard %d serving on %s\n", i, addr)
	}
	if *shards > 1 {
		fmt.Printf("p2pdir: peers route with -dir-addrs %s\n", strings.Join(addrs, ","))
	}
	if *autoscale {
		fmt.Printf("p2pdir: autoscaling %d..%d shards (high %.3g, low %.3g lookups/shard per %v); peers follow with -dir-addrs %s -dir-epochs\n",
			*shards, *asMax, *asHigh, *asLow, *asInterval, strings.Join(addrs, ","))
	}

	// The servers run in the background until the process is told to
	// stop; then every live shard server closes.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
}
