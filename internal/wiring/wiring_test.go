package wiring

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/chordnet"
	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/reshard"
)

// cluster is one virtual substrate: an auto-running virtual clock and a
// virtual network.
type cluster struct {
	t   *testing.T
	clk *clock.Virtual
	net *netx.Virtual
}

func newCluster(t *testing.T) *cluster {
	clk := clock.NewVirtual()
	t.Cleanup(clk.AutoRun())
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 300 * time.Microsecond})
	return &cluster{t: t, clk: clk, net: vnet}
}

// serveDirectory boots one directory server on its own host.
func (c *cluster) serveDirectory(host string) (*directory.Server, string) {
	srv := directory.NewServer(1)
	l, err := c.net.Host(host).Listen(":0")
	if err != nil {
		c.t.Fatal(err)
	}
	go srv.Serve(l)
	c.t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// builder returns a Builder with a valid node template and no backend.
func (c *cluster) builder() *Builder {
	return &Builder{Node: node.Config{
		NumClasses: 4,
		Policy:     dac.DAC,
		File:       &media.File{Name: "v", Segments: 16, SegmentBytes: 64, SegmentTime: 4 * time.Millisecond},
		M:          8,
		TOut:       50 * time.Millisecond,
		Backoff:    dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2},
		Clock:      c.clk,
	}}
}

// chordBackend selects the chord ring.
func chordBackend(_ *cluster, b *Builder) {
	b.Chord = &chordnet.Config{Stabilize: 5 * time.Millisecond}
}

// describe renders a discovery endpoint as its concrete type, plus what a
// sharded client routes by: shard count @ epoch.
func describe(disc node.Discovery) string {
	if sc, ok := disc.(*directory.ShardedClient); ok {
		return fmt.Sprintf("%T %d@%d", sc, sc.Shards(), sc.Epoch())
	}
	return fmt.Sprintf("%T", disc)
}

// shapes are the four backend configurations a Builder can carry, each
// with the endpoint every peer must be wired with.
var shapes = []struct {
	name    string
	backend func(c *cluster, b *Builder)
	want    string
}{
	{"directory", func(c *cluster, b *Builder) {
		_, b.DirectoryAddr = c.serveDirectory("dir")
	}, "*directory.Client"}, // the plain client: no lease timer
	{"sharded", func(c *cluster, b *Builder) {
		_, a0 := c.serveDirectory("shard-0")
		_, a1 := c.serveDirectory("shard-1")
		b.Sharded = &directory.ShardedConfig{Addrs: []string{a0, a1}, Refresh: 40 * time.Millisecond}
	}, "*directory.ShardedClient 2@0"},
	{"elastic", func(c *cluster, b *Builder) {
		boot := func(i int, addr string) (*directory.Server, string, error) {
			srv := directory.NewServer(1)
			bound, err := srv.Start(c.net.Host(directory.ShardName(i)), addr)
			return srv, bound, err
		}
		dep, err := reshard.Deploy(1, boot, &reshard.Config{
			Clock:     c.clk,
			Interval:  time.Hour, // never samples: only its snapshot is needed
			HighWater: 1,
		})
		if err != nil {
			c.t.Fatal(err)
		}
		c.t.Cleanup(dep.Close)
		// The template's own shard list must lose to the deployment's.
		b.Sharded = &directory.ShardedConfig{Addrs: []string{"stale:1", "stale:2"}, Refresh: 40 * time.Millisecond}
		b.Autoscale = dep
	}, "*directory.ShardedClient 1@1"},
	{"chord", chordBackend, "*chordnet.Peer"},
}

// listenLog records every address a peer's network listens on.
type listenLog struct {
	netx.Network
	addrs []string
}

func (l *listenLog) Listen(addr string) (net.Listener, error) {
	ln, err := l.Network.Listen(addr)
	if err == nil {
		l.addrs = append(l.addrs, ln.Addr().String())
	}
	return ln, err
}

// TestStart runs one population per backend shape. First two seeds that
// fail after their discovery endpoint is already up — the node cannot be
// built (M = 0), the node cannot start (its overlay port is taken): Start
// must close the endpoint, so nothing the peer listened on stays dialable,
// and must not publish a chord seed as a bootstrap member. Then, on the
// same builder, two seeds and a requester come up with the shape's
// discovery endpoint and the requester is served through it.
func TestStart(t *testing.T) {
	ctx := context.Background()
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			c := newCluster(t)
			b := c.builder()
			shape.backend(c, b)

			squat, err := c.net.Host("taken").Listen(":7000")
			if err != nil {
				t.Fatal(err)
			}
			defer squat.Close()
			m := b.Node.M
			for _, f := range []struct {
				peer Peer
				m    int
			}{
				{Peer{ID: "bad", Class: 1}, 0},
				{Peer{ID: "taken", Class: 1, ListenAddr: ":7000"}, m},
			} {
				log := &listenLog{Network: c.net.Host(f.peer.ID)}
				f.peer.Network = log
				b.Node.M = f.m
				if n, _, err := b.Start(ctx, f.peer, true); err == nil {
					n.Close()
					t.Fatalf("seed %s started", f.peer.ID)
				}
				for _, addr := range log.addrs {
					if conn, err := c.net.Host("probe").Dial(addr); err == nil {
						conn.Close()
						t.Errorf("seed %s: %s still dialable after the failed start", f.peer.ID, addr)
					}
				}
				if len(b.boots) != 0 {
					t.Errorf("failed seed %s published as bootstrap: %v", f.peer.ID, b.boots)
				}
			}
			b.Node.M = m

			var req *node.Node
			for i, id := range []string{"s1", "s2", "r"} {
				n, disc, err := b.Start(ctx, Peer{ID: id, Class: 1, Seed: int64(i + 1), Network: c.net.Host(id)}, id != "r")
				if err != nil {
					t.Fatalf("start %s: %v", id, err)
				}
				defer n.Close()
				if got := describe(disc); got != shape.want {
					t.Errorf("%s wired with %s, want %s", id, got, shape.want)
				}
				req = n
			}
			if _, err := req.RequestUntilAdmitted(ctx, "", 10); err != nil {
				t.Fatal(err)
			}
			if chord := b.Chord != nil; (len(b.boots) == 2) != chord {
				t.Errorf("bootstrap list %v after two started seeds (chord backend: %v)", b.boots, chord)
			}
		})
	}
	if _, _, err := (&Builder{}).Start(ctx, Peer{ID: "x", Class: 1}, true); err == nil {
		t.Error("a builder with no backend started a peer")
	}
}

// gate wraps a peer's network and runs a hook before the peer's overlay
// listener opens — the last step of Start, after the bootstrap list was
// read and the chord endpoint started. The overlay listener is told apart
// from the chord one by its fixed port.
type gate struct {
	netx.Network
	hook func() error
}

const overlayPort = ":7000"

func (g *gate) Listen(addr string) (net.Listener, error) {
	if strings.HasSuffix(addr, overlayPort) {
		if err := g.hook(); err != nil {
			return nil, err
		}
	}
	return g.Network.Listen(addr)
}

// TestConcurrentFoundersShareOneRing: two seeds created concurrently
// against an empty bootstrap list must not each found a singleton ring. The
// first seed is held inside Start (bootstrap list read, endpoint not yet
// published); the second, started meanwhile, must wait for it rather than
// read the still-empty list — and once both are up each sees the other as
// its successor.
func TestConcurrentFoundersShareOneRing(t *testing.T) {
	c := newCluster(t)
	b := c.builder()
	chordBackend(c, b)
	aHeld, releaseA, bListening := make(chan struct{}), make(chan struct{}), make(chan struct{})
	hooks := map[string]func() error{
		"a": func() error { close(aHeld); <-releaseA; return nil },
		"b": func() error { close(bListening); return nil },
	}
	rings := make(map[string]*chordnet.Peer)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := func(id string) {
		defer wg.Done()
		n, disc, err := b.Start(context.Background(), Peer{
			ID: id, Class: 1, Seed: 1, ListenAddr: overlayPort,
			Network: &gate{Network: c.net.Host(id), hook: hooks[id]},
		}, true)
		if err != nil {
			t.Errorf("start %s: %v", id, err)
			return
		}
		t.Cleanup(func() { n.Close() })
		mu.Lock()
		rings[id] = disc.(*chordnet.Peer)
		mu.Unlock()
	}
	wg.Add(2)
	go start("a")
	<-aHeld
	go start("b")
	select {
	case <-bListening:
		t.Error("second founder read the bootstrap list while the first was unpublished")
	case <-time.After(100 * time.Millisecond): // the absence of an event has no signal to wait on
	}
	close(releaseA)
	wg.Wait()
	if t.Failed() {
		return
	}
	for id, other := range map[string]string{"a": "b", "b": "a"} {
		var succ []string
		for i := 0; i < 200 && (len(succ) == 0 || succ[0] != other); i++ {
			c.clk.Sleep(5 * time.Millisecond) // stabilization rounds, in virtual time
			succ = succ[:0]
			for _, s := range rings[id].Successors() {
				succ = append(succ, s.Name)
			}
		}
		if len(succ) == 0 || succ[0] != other {
			t.Errorf("%s has successors %v, want %s first: two rings", id, succ, other)
		}
	}
}

// TestJoinsOfFoundedRingRunConcurrently: once the ring has a member, peer
// creation is not serialized — two requesters each block in Start until
// the other has reached the same point, which only concurrent Starts can
// satisfy.
func TestJoinsOfFoundedRingRunConcurrently(t *testing.T) {
	c := newCluster(t)
	b := c.builder()
	chordBackend(c, b)
	ctx := context.Background()
	seed, _, err := b.Start(ctx, Peer{ID: "s", Class: 1, Seed: 1, Network: c.net.Host("s")}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	var arrived sync.WaitGroup
	arrived.Add(2)
	rendezvous := func() error {
		arrived.Done()
		both := make(chan struct{})
		go func() { arrived.Wait(); close(both) }()
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other joiner never reached its listener: joins are serialized")
		}
	}
	var wg sync.WaitGroup
	for _, id := range []string{"r1", "r2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, _, err := b.Start(ctx, Peer{
				ID: id, Class: 1, Seed: 1, ListenAddr: overlayPort,
				Network: &gate{Network: c.net.Host(id), hook: rendezvous},
			}, false)
			if err != nil {
				t.Errorf("start %s: %v", id, err)
				return
			}
			n.Close()
		}()
	}
	wg.Wait()
}

// TestSecondStartRefused: each listening component binds once. A repeated
// Start must fail before it opens anything — a second listener would
// orphan the first one's accept loop, and Close would then never return
// (node) or leave the first address open (directory) — and the one
// listener there ever was closes with the component.
func TestSecondStartRefused(t *testing.T) {
	c := newCluster(t)
	for _, comp := range []struct {
		name  string
		build func(nw netx.Network) (start func() error, stop func() error)
	}{
		{"directory", func(nw netx.Network) (func() error, func() error) {
			srv := directory.NewServer(1)
			return func() error { _, err := srv.Start(nw, ""); return err }, srv.Close
		}},
		{"node", func(nw netx.Network) (func() error, func() error) {
			cfg := c.builder().Node
			cfg.ID, cfg.Class, cfg.Network, cfg.DirectoryAddr = "node", 1, nw, "nowhere:1"
			n, err := node.NewRequester(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { return n.Start(context.Background()) }, n.Close
		}},
		{"chord", func(nw netx.Network) (func() error, func() error) {
			p, err := chordnet.New(chordnet.Config{ID: "chord", Class: 1, Network: nw, Clock: c.clk})
			if err != nil {
				t.Fatal(err)
			}
			return p.Start, p.Close
		}},
	} {
		t.Run(comp.name, func(t *testing.T) {
			log := &listenLog{Network: c.net.Host(comp.name)}
			start, stop := comp.build(log)
			if err := start(); err != nil {
				t.Fatal(err)
			}
			if err := start(); err == nil {
				t.Error("second Start succeeded")
			}
			if len(log.addrs) != 1 {
				t.Errorf("listened on %v, want one address", log.addrs)
			}
			stopped := make(chan struct{})
			go func() { defer close(stopped); stop() }()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("Close wedged on an orphaned accept loop")
			}
			for _, addr := range log.addrs {
				if conn, err := c.net.Host("tester").Dial(addr); err == nil {
					conn.Close()
					t.Errorf("%s still accepts after Close", addr)
				}
			}
		})
	}
}
