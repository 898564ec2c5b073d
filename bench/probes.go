package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/clock"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/lookup"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/protocol"
	"p2pstream/internal/sim"
	"p2pstream/internal/transport"
)

// layerProbes times each layer's public functions in isolation, with the
// workloads' own sizes, and returns the per-layer cost metrics. A probe is
// a mean over a fixed number of calls; together they take a few seconds.
func layerProbes() (map[string]float64, error) {
	m := make(map[string]float64)
	for _, probe := range []func(map[string]float64) error{
		probeClock, probeSim, probeVnet, probeTCP, probeTransport,
		probeDirectory, probeAdmission, probeMedia, probeNode,
	} {
		if err := probe(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeClock: one timer scheduled and fired on a manually driven Virtual.
func probeClock(m map[string]float64) error {
	clk := clock.NewVirtual()
	fired := 0
	fn := func() { fired++ }
	m["clock.virtual_timer_ns"], m["clock.virtual_timer_allocs"] = perOp(200_000, func() {
		clk.AfterFunc(time.Millisecond, fn)
		clk.Advance(time.Millisecond)
	})
	if fired == 0 {
		return fmt.Errorf("clock probe: no timer fired")
	}
	return nil
}

// probeSim: one event scheduled and one stepped with 10,000 pending — the
// classic hold model, so every push and pop walks a full-depth heap.
func probeSim(m map[string]float64) error {
	var eng sim.Engine
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	var err error
	hold := func() {
		if e := eng.After(time.Duration(1+rng.Int63n(int64(time.Second))), fn); e != nil {
			err = e
		}
	}
	for i := 0; i < 10_000; i++ {
		hold()
	}
	m["sim.event_ns"], m["sim.event_allocs"] = perOp(500_000, func() {
		hold()
		eng.Step()
	})
	return err
}

// probeVnet: one 256-byte chunk through a virtual link (batches of 64 per
// clock advance, as a paced session produces them), and one virtual
// dial+accept+close.
func probeVnet(m map[string]float64) error {
	clk := clock.NewVirtual()
	v := netx.NewVirtual(clk, 1)
	v.SetDefaultLink(netx.LinkConfig{Latency: 300 * time.Microsecond})
	l, err := v.Host("sup").Listen(":0")
	if err != nil {
		return err
	}
	defer l.Close()
	dial := func() (w, r net.Conn, err error) {
		if w, err = v.Host("req").Dial(l.Addr().String()); err != nil {
			return nil, nil, err
		}
		clk.Advance(time.Millisecond) // one link latency surfaces the acceptee
		r, err = l.Accept()
		return w, r, err
	}
	w, r, err := dial()
	if err != nil {
		return err
	}
	const chunk, batch = 256, 64
	payload := make([]byte, chunk)
	buf := make([]byte, chunk*batch)
	ns, allocs := perOp(4000, func() {
		for j := 0; j < batch; j++ {
			if _, e := w.Write(payload); e != nil {
				err = e
			}
		}
		clk.Advance(time.Millisecond)
		for rest := chunk * batch; rest > 0 && err == nil; {
			n, e := r.Read(buf)
			rest -= n
			err = e
		}
	})
	w.Close()
	r.Close()
	m["netx.vnet_chunk_ns"], m["netx.vnet_chunk_allocs"] = ns/batch, allocs/batch
	if err != nil {
		return fmt.Errorf("vnet chunk probe: %w", err)
	}
	m["netx.vnet_dial_ns"], m["netx.vnet_dial_allocs"] = perOp(50_000, func() {
		w, r, e := dial()
		if e != nil {
			err = e
			return
		}
		w.Close()
		r.Close()
	})
	if err != nil {
		return fmt.Errorf("vnet dial probe: %w", err)
	}
	return nil
}

// serveLoopback accepts on a fresh loopback listener and hands every
// connection to handle on its own goroutine; stop closes the listener and
// waits for the accept loop.
func serveLoopback(handle func(net.Conn)) (addr string, stop func(), err error) {
	l, err := netx.System.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return l.Addr().String(), func() { l.Close(); <-done }, nil
}

// probeTCP: one real dial+accept+close on loopback, and one transport.Call
// round trip (dial included) against a peer that answers probes.
func probeTCP(m map[string]float64) error {
	addr, stop, err := serveLoopback(func(c net.Conn) { c.Close() })
	if err != nil {
		return err
	}
	ns, _ := perOp(5000, func() {
		c, e := netx.System.Dial(addr)
		if e != nil {
			err = e
			return
		}
		c.Close()
	})
	stop()
	if err != nil {
		return fmt.Errorf("tcp dial probe: %w", err)
	}
	m["netx.tcp_dial_us"] = ns / 1e3

	addr, stop, err = serveLoopback(func(c net.Conn) {
		defer c.Close()
		var req transport.Probe
		if transport.ReadExpect(c, transport.KindProbe, &req) == nil {
			transport.Write(c, transport.KindProbeReply, transport.ProbeReply{Decision: dac.Granted, Favors: true})
		}
	})
	if err != nil {
		return err
	}
	defer stop()
	ctx := context.Background()
	ns, _ = perOp(5000, func() {
		var reply transport.ProbeReply
		if e := transport.Call(ctx, netx.System, addr, transport.KindProbe,
			transport.Probe{RequesterID: "r1", Class: 1}, transport.KindProbeReply, &reply); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("transport call probe: %w", err)
	}
	m["transport.call_us"] = ns / 1e3
	return nil
}

// frameTrip writes one frame into a buffer, reads it back and decodes it.
func frameTrip(buf *bytes.Buffer, kind transport.Kind, body, out any) error {
	buf.Reset()
	if err := transport.Write(buf, kind, body); err != nil {
		return err
	}
	env, err := transport.Read(buf)
	if err != nil {
		return err
	}
	return env.Decode(out)
}

// probeTransport: the codec alone, no socket — one 16 KiB segment frame,
// and the mean over the seven small frames an admission exchanges.
func probeTransport(m map[string]float64) error {
	var buf bytes.Buffer
	var err error
	note := func(e error) {
		if e != nil {
			err = e
		}
	}
	seg := transport.Segment{ID: 7, Data: media.SegmentContent(
		&media.File{Name: "bulk", Segments: 8, SegmentBytes: 16 << 10, SegmentTime: time.Millisecond}, 7).Data}
	ns, allocs := perOp(2000, func() {
		var out transport.Segment
		note(frameTrip(&buf, transport.KindSegment, seg, &out))
	})
	m["transport.segment_frame_us"], m["transport.segment_frame_allocs"] = ns/1e3, allocs
	buf.Reset()
	note(transport.Write(&buf, transport.KindSegment, seg))
	m["transport.segment_wire_ratio"] = float64(buf.Len()) / float64(len(seg.Data))

	peers := make([]transport.Candidate, 8)
	for i := range peers {
		peers[i] = transport.Candidate{ID: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i), Class: bandwidth.Class(1 + i%4)}
	}
	small := []func(){
		func() {
			var out transport.Probe
			note(frameTrip(&buf, transport.KindProbe, transport.Probe{RequesterID: "r1", Class: 1}, &out))
		},
		func() {
			var out transport.ProbeReply
			note(frameTrip(&buf, transport.KindProbeReply, transport.ProbeReply{Decision: dac.Granted, Favors: true}, &out))
		},
		func() {
			var out transport.Lookup
			note(frameTrip(&buf, transport.KindLookup, transport.Lookup{M: 8, Exclude: "r1"}, &out))
		},
		func() {
			var out transport.Candidates
			note(frameTrip(&buf, transport.KindCandidates, transport.Candidates{Peers: peers, Len: 64}, &out))
		},
		func() {
			var out transport.Start
			note(frameTrip(&buf, transport.KindStart, transport.Start{RequesterID: "r1", FileName: "clip", Segments: []int{0, 2, 4, 6}}, &out))
		},
		func() {
			var out transport.StartReply
			note(frameTrip(&buf, transport.KindStartReply, transport.StartReply{OK: true}, &out))
		},
		func() {
			var out transport.Register
			note(frameTrip(&buf, transport.KindRegister, transport.Register{ID: "r1", Addr: "127.0.0.1:40000", Class: 1}, &out))
		},
	}
	ns, allocs = perOp(20_000, func() {
		for _, trip := range small {
			trip()
		}
	})
	m["transport.small_frame_ns"], m["transport.small_frame_allocs"] = ns/float64(len(small)), allocs/float64(len(small))
	return err
}

// startDirectory serves a directory with the given number of
// registrations on loopback and returns a client for it.
func startDirectory(regs int) (cl *directory.Client, stop func(), err error) {
	l, err := netx.System.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := directory.NewServer(1)
	go srv.Serve(l) // returns when srv.Close closes the listener
	cl = directory.NewClient(l.Addr().String())
	stop = func() { cl.Close(); srv.Close() }
	batch := make([]transport.Register, regs)
	for i := range batch {
		batch[i] = transport.Register{ID: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 1+i), Class: bandwidth.Class(1 + i%4)}
	}
	if err := cl.RegisterBatch(context.Background(), batch); err != nil {
		stop()
		return nil, nil, err
	}
	return cl, stop, nil
}

// probeDirectory: lookups against 64 and 10,000 registrations and a
// register+unregister pair, all through a Client over loopback.
func probeDirectory(m map[string]float64) error {
	ctx := context.Background()
	var err error
	lookupUS := func(cl *directory.Client) float64 {
		ns, _ := perOp(5000, func() {
			if cands, e := cl.Candidates(ctx, "", 8, "r1"); e != nil {
				err = e
			} else if len(cands) != 8 {
				err = fmt.Errorf("lookup returned %d candidates, want 8", len(cands))
			}
		})
		return ns / 1e3
	}
	small, stop, err := startDirectory(64)
	if err != nil {
		return err
	}
	defer stop()
	m["directory.lookup_us"] = lookupUS(small)
	reg := transport.Register{ID: "r1", Addr: "127.0.0.1:9", Class: 1}
	ns, _ := perOp(5000, func() {
		if e := small.Register(ctx, reg); e != nil {
			err = e
		}
		if e := small.Unregister(ctx, reg.ID, ""); e != nil {
			err = e
		}
	})
	m["directory.register_us"] = ns / 1e3
	if err != nil {
		return fmt.Errorf("directory probe: %w", err)
	}
	big, stop, err := startDirectory(10_000)
	if err != nil {
		return err
	}
	defer stop()
	m["directory.lookup_10k_us"] = lookupUS(big)
	if err != nil {
		return fmt.Errorf("directory probe (10k registrations): %w", err)
	}
	return nil
}

// probeAdmission: the shared admission core — an M=8 sweep to admission,
// one supplier-side probe decision, one OTS assignment over the paper's
// Figure 1 mix, one M=8 sample from a 50,000-entry lookup directory.
func probeAdmission(m map[string]float64) error {
	classes := []bandwidth.Class{1, 1, 2, 2, 3, 3, 3, 3}
	var err error
	m["protocol.attempt_sweep_ns"], _ = perOp(200_000, func() {
		att := protocol.NewAttempt(classes)
		for {
			idx, ok := att.Next()
			if !ok {
				break
			}
			att.Record(idx, dac.Granted, true)
		}
		if !att.Admitted() {
			err = fmt.Errorf("attempt sweep probe: not admitted")
		}
	})
	if err != nil {
		return err
	}
	sup, err := dac.NewSupplier(2, 4, dac.DAC)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	i := 0
	m["dac.handle_probe_ns"], _ = perOp(1_000_000, func() {
		sup.HandleProbe(bandwidth.Class(1+i%4), rng.Float64())
		i++
	})
	mix := []core.Supplier{{ID: "a", Class: 1}, {ID: "b", Class: 2}, {ID: "c", Class: 3}, {ID: "d", Class: 3}}
	m["core.assign_ns"], _ = perOp(200_000, func() {
		if a, e := core.Assign(mix); e != nil {
			err = e
		} else if a.DelaySlots() != int64(len(mix)) {
			err = fmt.Errorf("core.Assign probe: delay %d slots, Theorem 1 wants %d", a.DelaySlots(), len(mix))
		}
	})
	if err != nil {
		return err
	}
	dir := lookup.NewDirectory[int]()
	for i := 0; i < 50_000; i++ {
		if err := dir.Register(lookup.Entry[int]{ID: i, Class: bandwidth.Class(1 + i%4)}); err != nil {
			return err
		}
	}
	m["lookup.sample_ns"], _ = perOp(200_000, func() {
		if got := dir.Sample(8, rng); len(got) != 8 {
			err = fmt.Errorf("lookup.Sample probe: %d entries, want 8", len(got))
		}
	})
	return err
}

// probeMedia: one 16 KiB Put, and seeding a whole stream-bulk store.
func probeMedia(m map[string]float64) error {
	file := &media.File{Name: "bulk", Segments: 1024, SegmentBytes: 16 << 10, SegmentTime: 10 * time.Microsecond}
	data := media.SegmentContent(file, 0).Data
	var store *media.Store
	var err error
	next := file.Segments
	m["media.store_put_ns"], m["media.store_put_allocs"] = perOp(200_000, func() {
		if next == file.Segments {
			if store, err = media.NewStore(file); err != nil {
				return
			}
			next = 0
		}
		if e := store.Put(media.Segment{ID: media.SegmentID(next), Data: data}); e != nil {
			err = e
		}
		next++
	})
	if err != nil {
		return fmt.Errorf("media put probe: %w", err)
	}
	ns, _ := perOp(5, func() {
		if _, e := media.NewSeededStore(file); e != nil {
			err = e
		}
	})
	m["media.seeded_store_ms"] = ns / 1e6
	return err
}

// probeNode: a requester's life with no request in it — NewRequester,
// Start (listen), Close.
func probeNode(m map[string]float64) error {
	file := &media.File{Name: "clip", Segments: 8, SegmentBytes: 256, SegmentTime: 50 * time.Microsecond}
	ctx := context.Background()
	var err error
	ns, _ := perOp(2000, func() {
		n, e := node.NewRequester(node.Config{
			ID: "r1", Class: 1, NumClasses: 4, Policy: dac.DAC,
			DirectoryAddr: "127.0.0.1:9", // never dialed: no request, nothing to unregister
			File:          file, M: 8, TOut: time.Second,
			Backoff: dac.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2},
		})
		if e == nil {
			e = n.Start(ctx)
			if cerr := n.Close(); e == nil {
				e = cerr
			}
		}
		if e != nil {
			err = e
		}
	})
	m["node.lifecycle_us"] = ns / 1e3
	return err
}
