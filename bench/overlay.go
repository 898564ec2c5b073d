package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
)

// overlayParams sizes one real-TCP overlay workload.
type overlayParams struct {
	file        *media.File
	seedClasses []bandwidth.Class // repeated to seeds entries, then shuffled by the run seed
	seeds       int
	clients     int // closed-loop clients, each waiting for its requester to finish
	warmup      int // untimed requesters run during set-up
	// opsPerRequester is how many ops one served requester counts for: the
	// file's segments on stream-bulk, 1 on admit-loop.
	opsPerRequester int
	// wholeRequest makes the latency sample the whole request (the user
	// waits for the file); otherwise it is the request minus the session,
	// i.e. the admission overhead.
	wholeRequest bool
}

// overlay is a live overlay on 127.0.0.1 over netx.System and the wall
// clock: one directory server, seed nodes, and requesters born one per op.
type overlay struct {
	p       overlayParams
	seed    int64
	ref     [][]byte // canonical content per segment, made apart from the seeds' stores
	dir     *directory.Server
	dirAddr string
	seeds   []*node.Node
	served  atomic.Int64 // requesters so far, for unique IDs

	// Set on traced runs only; an untraced overlay runs on the node's own
	// defaults (nil Network, nil Discovery, nil Observer).
	tr     *tracer
	counts *wireCounts
}

func (p overlayParams) setup(seed int64, tr *tracer) (instance, error) {
	o := &overlay{p: p, seed: seed, tr: tr}
	var network netx.Network = netx.System
	if tr != nil {
		o.counts = new(wireCounts)
		network = &countingNet{counts: o.counts}
	}
	o.ref = make([][]byte, p.file.Segments)
	for id := range o.ref {
		o.ref[id] = media.SegmentContent(p.file, media.SegmentID(id)).Data
	}
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o.dir = directory.NewServer(seed)
	o.dirAddr = l.Addr().String()
	go o.dir.Serve(l) // returns when close() closes the server

	classes := make([]bandwidth.Class, p.seeds)
	for i := range classes {
		classes[i] = p.seedClasses[i%len(p.seedClasses)]
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i, class := range classes {
		cfg := o.config(fmt.Sprintf("s%d", i), class, rng.Int63())
		if tr != nil {
			cfg.Network = network
			cfg.Observer = o.counts
		}
		s, err := node.NewSeed(cfg)
		if err == nil {
			err = s.Start(context.Background())
		}
		if err != nil {
			o.close()
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
		o.seeds = append(o.seeds, s)
	}
	for i := 0; i < p.warmup; i++ {
		if _, err := o.serveOne(); err != nil {
			o.close()
			return nil, fmt.Errorf("warm-up requester %d: %w", i, err)
		}
	}
	return o, nil
}

func (o *overlay) config(id string, class bandwidth.Class, nodeSeed int64) node.Config {
	return node.Config{
		ID: id, Class: class, NumClasses: 4, Policy: dac.DAC,
		DirectoryAddr: o.dirAddr, File: o.p.file, M: 8,
		TOut:    time.Second,
		Backoff: dac.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 64 * time.Millisecond},
		Seed:    nodeSeed,
		// The fixed-schedule data plane: with δt in microseconds the
		// schedule never binds and the stack is the bottleneck.
		NoAdapt: true,
	}
}

// maxAttempts bounds one requester's admission retries; a requester still
// rejected after that many counts as failed.
const maxAttempts = 50

// serveOne is one op batch: a fresh class-1 requester is admitted,
// receives the file, registers as a supplier and closes (unregistering).
// It returns the latency sample.
func (o *overlay) serveOne() (time.Duration, error) {
	n := o.served.Add(1)
	id := fmt.Sprintf("r%d", n)
	cfg := o.config(id, 1, o.seed<<20+n)
	var rt *requestTrace
	if o.tr != nil {
		rt = newRequestTrace(o.tr, o.counts, id)
		cfg.Network = rt.net
		cfg.Discovery = timedDiscovery{
			inner: directory.NewClientOn(&countingNet{counts: o.counts}, o.dirAddr),
			rt:    rt,
		}
	}
	req, err := node.NewRequester(cfg)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	if err := req.Start(ctx); err != nil {
		req.Close()
		return 0, err
	}
	start := time.Now()
	rep, err := req.RequestUntilAdmitted(ctx, "", maxAttempts)
	end := time.Now()
	var sample time.Duration
	if err == nil {
		sample = end.Sub(start)
		if !o.p.wholeRequest {
			sample -= rep.Duration
		}
		if rt != nil {
			rt.finish(start, end, len(rep.Suppliers))
			o.counts.rejections.Add(int64(rep.Rejections))
		}
		err = o.verify(req.Store())
	}
	if cerr := req.Close(); err == nil {
		err = cerr
	}
	return sample, err
}

// verify checks a requester's store byte for byte against the canonical
// content.
func (o *overlay) verify(store *media.Store) error {
	if store == nil || !store.Complete() {
		return errors.New("store incomplete")
	}
	for id, want := range o.ref {
		seg, ok := store.Get(media.SegmentID(id))
		if !ok || seg.Quality != 0 || !bytes.Equal(seg.Data, want) {
			return fmt.Errorf("segment %d differs from media.SegmentContent", id)
		}
	}
	return nil
}

// run drives the closed loop: each client starts its next requester only
// when the previous one has closed, until the window has passed.
func (o *overlay) run(window time.Duration) tally {
	before := o.layerCounts()
	deadline := time.Now().Add(window)
	tallies := make([]tally, o.p.clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sample, err := o.serveOne()
				t.attempted++
				if err != nil {
					t.fail(1, err)
					continue
				}
				t.done(o.p.opsPerRequester, sample)
			}
		}(&tallies[c])
	}
	wg.Wait()
	var sum tally
	for _, t := range tallies {
		sum.merge(t)
	}
	sum.counts = o.layerCounts()
	for name := range sum.counts {
		sum.counts[name] -= before[name]
	}
	return sum
}

// layerCounts reads the cumulative per-layer counters of a traced overlay
// (nil on an untraced one).
func (o *overlay) layerCounts() map[string]float64 {
	if o.tr == nil {
		return nil
	}
	st := o.dir.Stats()
	return map[string]float64{
		"netx.dials":          float64(o.counts.dials.Load()),
		"netx.writes":         float64(o.counts.writes.Load()),
		"netx.wire_bytes":     float64(o.counts.bytes.Load()),
		"directory.ops":       float64(st.Registers + st.Refreshes + st.Unregisters + st.Lookups),
		"protocol.probes":     float64(o.counts.probes.Load()),
		"protocol.rejections": float64(o.counts.rejections.Load()),
	}
}

func (o *overlay) close() {
	for _, s := range o.seeds {
		s.Close()
	}
	o.dir.Close()
}
