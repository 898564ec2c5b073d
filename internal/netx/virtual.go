package netx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/splitmix"
)

// LinkConfig describes one directed link of the virtual network.
type LinkConfig struct {
	// Latency is the one-way delivery delay of every chunk.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per chunk
	// (FIFO order per connection is always preserved).
	Jitter time.Duration
	// DropDial is the probability that a Dial over this link fails — the
	// paper's transiently "down" candidate, injected at connection setup
	// (established streams stay reliable, like TCP).
	DropDial float64
	// Loss is the per-chunk probability that a chunk is lost in transit
	// and must be retransmitted. Streams stay reliable (the TCP model):
	// every loss adds one retransmission round — 2×Latency — to the
	// chunk's delivery delay instead of corrupting the byte stream.
	Loss float64
	// Blocked refuses new dials over this link while leaving established
	// connections untouched — the building block for network partitions
	// (heal by re-configuring the link with Blocked unset).
	Blocked bool
	// Bandwidth, when positive, models the link's bottleneck capacity in
	// bytes per second: every chunk pays a serialization delay and queues
	// behind earlier chunks sharing the same bottleneck. Zero keeps the
	// link purely latency-modeled (no bandwidth accounting at all).
	Bandwidth int64
	// QueueBytes bounds the bottleneck queue. A chunk arriving when the
	// backlog already exceeds this many bytes is tail-dropped: the stream
	// stays reliable (the TCP model), so the drop surfaces as one
	// retransmission round of extra delay and a QueueDrops count, never as
	// corruption. Zero means a default queue of defaultQueueDelay worth of
	// bytes at the link bandwidth.
	QueueBytes int
	// Bottleneck names the shared resource this link's traffic serializes
	// through. Links with the same non-empty name share one queue (the
	// dumbbell topologies of RFC 8867); an empty name shares the
	// destination host's ingress — a requester's n suppliers naturally
	// contend for its access link.
	Bottleneck string
}

// defaultQueueDelay is the bottleneck queue bound when QueueBytes is zero:
// the deepest standing queue a chunk may join, expressed as waiting time at
// the link bandwidth (a "250ms buffer", the classic access-link default).
const defaultQueueDelay = 250 * time.Millisecond

// waker is the optional clock interface the virtual network uses to gate
// auto-advancing while a delivery it just made is still being consumed.
type waker interface {
	NoteWake()
	WakeDone()
}

// shardCount is a power of two comfortably above the core counts the
// harness runs on, so host-keyed state rarely contends.
const shardCount = 64

// shard holds one slice of the network's host-keyed state. Listeners,
// down-markers, and link rows live in the shard of their (source) host;
// connections register in the shard of their local host. The steady-state
// send path touches no shard at all — conns cache their resolved link
// config behind the network's epoch counter.
type shard struct {
	mu        sync.Mutex
	rng       splitmix.Rand // dial randomness (drop, dial-delay sampling)
	listeners map[string]*vListener
	conns     map[*vConn]struct{}
	down      map[string]bool
	links     map[[2]string]LinkConfig
}

// Virtual is an in-memory network of named hosts. All delays run on the
// supplied Clock, so a cluster driven by a clock.Virtual executes hours of
// traffic in milliseconds of wall time, deterministically. Create per-host
// views with Host; configure delays with SetDefaultLink/SetLink; inject
// churn with SetDown. State is sharded by host hash and the per-chunk send
// path is lock-free outside its own connection, so six-digit host counts
// do not serialize on the network object.
type Virtual struct {
	clk   clock.Clock
	waker waker // non-nil when clk supports advance gating
	seed  int64

	// epoch versions the link tables: SetLink/SetDefaultLink bump it after
	// writing, and every conn re-resolves its cached LinkConfig when the
	// value it last saw goes stale. Starts at 1 so zero-valued conn caches
	// always miss first.
	epoch    atomic.Uint64
	nextPort atomic.Int64
	def      atomic.Pointer[LinkConfig]

	// dials counts every Dial attempt; queueDrops counts bottleneck
	// tail-drops. Both are observability counters for scenarios.
	dials      atomic.Int64
	queueDrops atomic.Int64

	// btlMu guards the bottleneck registry. Conns cache their resolved
	// *bottleneck behind the link epoch, so the steady-state send path
	// never takes this lock.
	btlMu sync.Mutex
	btls  map[string]*bottleneck

	shards [shardCount]shard
}

// bottleneck is one shared transmission resource: a serialization horizon
// (busyUntil) advanced by every chunk that passes through it. The zero
// value is ready to use.
type bottleneck struct {
	mu        sync.Mutex
	busyUntil time.Time
}

// bottleneckFor returns (creating on first use) the shared queue for a
// link: the named group when set, else the destination host's ingress.
func (v *Virtual) bottleneckFor(group, dstHost string) *bottleneck {
	key := "h:" + dstHost
	if group != "" {
		key = "g:" + group
	}
	v.btlMu.Lock()
	b := v.btls[key]
	if b == nil {
		b = new(bottleneck)
		v.btls[key] = b
	}
	v.btlMu.Unlock()
	return b
}

// delay charges one chunk of n bytes through the bottleneck at the given
// instant and returns its total bottleneck delay (queue wait +
// serialization, plus a retransmission round when tail-dropped) and whether
// it was dropped.
func (b *bottleneck) delay(link *LinkConfig, n int, now time.Time) (time.Duration, bool) {
	ser := time.Duration(int64(n) * int64(time.Second) / link.Bandwidth)
	limit := defaultQueueDelay
	if link.QueueBytes > 0 {
		limit = time.Duration(int64(link.QueueBytes) * int64(time.Second) / link.Bandwidth)
	}
	b.mu.Lock()
	start := now
	if b.busyUntil.After(start) {
		start = b.busyUntil
	}
	dropped := false
	if start.Sub(now) > limit {
		// Tail-drop: the reliable stream retransmits after one RTO, and
		// the retransmission re-queues behind the backlog it found.
		dropped = true
		rto := 2 * link.Latency
		if rto <= 0 {
			rto = time.Millisecond
		}
		start = start.Add(rto)
	}
	end := start.Add(ser)
	b.busyUntil = end
	b.mu.Unlock()
	return end.Sub(now), dropped
}

// Dials reports the total number of Dial attempts made on this network —
// the cost a persistent-connection client is meant to collapse.
func (v *Virtual) Dials() int64 { return v.dials.Load() }

// QueueDrops reports the total number of bottleneck tail-drops.
func (v *Virtual) QueueDrops() int64 { return v.queueDrops.Load() }

// NewVirtual returns an empty virtual network whose delays run on clk. The
// seed fixes jitter and drop randomness.
func NewVirtual(clk clock.Clock, seed int64) *Virtual {
	v := &Virtual{clk: clk, seed: seed}
	if w, ok := clk.(waker); ok {
		v.waker = w
	}
	v.epoch.Store(1)
	v.def.Store(new(LinkConfig))
	v.btls = make(map[string]*bottleneck)
	for i := range v.shards {
		s := &v.shards[i]
		s.rng = seedRNG(seed, uint64(i)+1)
		s.listeners = make(map[string]*vListener)
		s.conns = make(map[*vConn]struct{})
		s.down = make(map[string]bool)
		s.links = make(map[[2]string]LinkConfig)
	}
	return v
}

// shardFor hashes a host name to its shard (FNV-1a).
func (v *Virtual) shardFor(host string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	return &v.shards[h&(shardCount-1)]
}

// SetDefaultLink sets the link configuration used by host pairs without a
// specific SetLink entry.
func (v *Virtual) SetDefaultLink(cfg LinkConfig) {
	c := cfg
	v.def.Store(&c)
	v.epoch.Add(1)
}

// SetLink configures the links between hosts a and b (both directions).
func (v *Virtual) SetLink(a, b string, cfg LinkConfig) {
	sa := v.shardFor(a)
	sa.mu.Lock()
	sa.links[[2]string{a, b}] = cfg
	sa.mu.Unlock()
	sb := v.shardFor(b)
	sb.mu.Lock()
	sb.links[[2]string{b, a}] = cfg
	sb.mu.Unlock()
	v.epoch.Add(1) // after the writes, so a stale cache can never stick
}

// ScheduleLink applies cfg to the a<->b links after d of virtual time —
// the primitive behind declarative link schedules (RFC 8867-style variable
// capacity) that change while the cluster runs, with no driving goroutine.
func (v *Virtual) ScheduleLink(d time.Duration, a, b string, cfg LinkConfig) {
	v.clk.AfterFunc(d, func() { v.SetLink(a, b, cfg) })
}

// ScheduleDefaultLink applies cfg as the default link after d of virtual
// time.
func (v *Virtual) ScheduleDefaultLink(d time.Duration, cfg LinkConfig) {
	v.clk.AfterFunc(d, func() { v.SetDefaultLink(cfg) })
}

// SetDown crashes a host: its listeners stop accepting, every established
// connection touching it fails on both ends, and new dials from or to it
// are refused. A crashed host stays down until SetUp revives it.
func (v *Virtual) SetDown(host string) {
	sh := v.shardFor(host)
	sh.mu.Lock()
	sh.down[host] = true
	var closing []io.Closer
	for addr, l := range sh.listeners {
		if l.addr.host == host {
			closing = append(closing, l)
			delete(sh.listeners, addr)
		}
	}
	sh.mu.Unlock()
	// Connections touching the host live in the shards of their local
	// hosts — scan them all. Crashes are rare control-plane events; the
	// data plane never pays for this.
	var dying []*vConn
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		for c := range s.conns {
			if c.local.host == host || c.remote.host == host {
				dying = append(dying, c)
				delete(s.conns, c)
			}
		}
		s.mu.Unlock()
	}
	for _, l := range closing {
		l.Close()
	}
	for _, c := range dying {
		c.inbox.fail(errConnReset)
		c.peer.inbox.fail(errConnReset)
	}
}

// SetUp revives a crashed host: new listeners bind and new dials succeed
// again. Everything from before the crash is gone (listeners closed,
// connections reset), so a revived host must re-listen and re-join the
// overlay — the "rejoin at t" half of a churn schedule.
func (v *Virtual) SetUp(host string) {
	sh := v.shardFor(host)
	sh.mu.Lock()
	delete(sh.down, host)
	sh.mu.Unlock()
}

// Host returns this host's view of the network: listeners bind under the
// host's name and dials originate from it (so per-link configuration and
// churn apply).
func (v *Virtual) Host(name string) Network { return &host{v: v, name: name} }

var (
	errRefused   = errors.New("netx: connection refused")
	errConnReset = errors.New("netx: connection reset by peer")
)

type host struct {
	v    *Virtual
	name string
}

// Listen binds a listener on this host. Only the port of addr is honored
// (0 or an empty address picks a fresh port); the host part is the host's
// own name.
func (h *host) Listen(addr string) (net.Listener, error) {
	port := 0
	if addr != "" {
		if i := strings.LastIndex(addr, ":"); i >= 0 {
			p, err := strconv.Atoi(addr[i+1:])
			if err != nil {
				return nil, fmt.Errorf("netx: bad listen address %q", addr)
			}
			port = p
		}
	}
	v := h.v
	if port == 0 {
		port = int(v.nextPort.Add(1))
	}
	sh := v.shardFor(h.name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down[h.name] {
		return nil, fmt.Errorf("netx: host %s is down", h.name)
	}
	l := &vListener{v: v, addr: vAddr{host: h.name, port: port}}
	l.cond = sync.NewCond(&l.mu)
	key := l.addr.String()
	if _, taken := sh.listeners[key]; taken {
		return nil, fmt.Errorf("netx: address %s already in use", key)
	}
	sh.listeners[key] = l
	return l, nil
}

// Dial connects from this host to addr, applying the link's dial-drop
// probability and delaying the accept by the link latency.
func (h *host) Dial(addr string) (net.Conn, error) {
	v := h.v
	v.dials.Add(1)
	dstHost := addr
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		dstHost = addr[:i]
	}
	src := h.name
	ssh, dsh := v.shardFor(src), v.shardFor(dstHost)

	dsh.mu.Lock()
	dstDown := dsh.down[dstHost]
	l, ok := dsh.listeners[addr]
	dsh.mu.Unlock()
	if dstDown || !ok {
		return nil, fmt.Errorf("netx: dial %s: %w", addr, errRefused)
	}

	link := v.linkFor(src, dstHost)
	if link.Blocked {
		return nil, fmt.Errorf("netx: dial %s: link blocked: %w", addr, errRefused)
	}
	ssh.mu.Lock()
	if ssh.down[src] {
		ssh.mu.Unlock()
		return nil, fmt.Errorf("netx: dial %s: %w", addr, errRefused)
	}
	if link.DropDial > 0 && ssh.rng.Float64() < link.DropDial {
		ssh.mu.Unlock()
		return nil, fmt.Errorf("netx: dial %s: dropped: %w", addr, errRefused)
	}
	delay := sampleDelay(link, &ssh.rng)

	localPort := int(v.nextPort.Add(1))
	local := vAddr{host: src, port: localPort}
	p := newConnPair(v, local, l)
	a, b := &p.a, &p.b // dialer's / acceptee's ends
	a.rng = seedRNG(v.seed, uint64(localPort)<<1)
	b.rng = seedRNG(v.seed, uint64(localPort)<<1|1)
	// Register each end in its local host's shard, re-checking the down
	// marker under the same lock so a concurrent SetDown either sees the
	// registration (and kills it) or refuses the dial here.
	ssh.conns[a] = struct{}{}
	ssh.mu.Unlock()
	dsh.mu.Lock()
	if dsh.down[dstHost] {
		dsh.mu.Unlock()
		ssh.mu.Lock()
		delete(ssh.conns, a)
		ssh.mu.Unlock()
		return nil, fmt.Errorf("netx: dial %s: %w", addr, errRefused)
	}
	dsh.conns[b] = struct{}{}
	dsh.mu.Unlock()

	// The acceptee surfaces after one link latency; no data scheduled on
	// either inbox may be delivered before that instant.
	now := v.clk.Now()
	acceptAt := now.Add(delay)
	a.inbox.lastAt = acceptAt
	b.inbox.lastAt = acceptAt
	p.syn.Reset(delay)
	return a, nil
}

// linkFor resolves the configuration of the src→dst link.
func (v *Virtual) linkFor(src, dst string) LinkConfig {
	sh := v.shardFor(src)
	sh.mu.Lock()
	cfg, ok := sh.links[[2]string{src, dst}]
	sh.mu.Unlock()
	if ok {
		return cfg
	}
	return *v.def.Load()
}

// drop removes a closed connection from its shard's registry.
func (v *Virtual) drop(c *vConn) {
	sh := v.shardFor(c.local.host)
	sh.mu.Lock()
	delete(sh.conns, c)
	sh.mu.Unlock()
}

// vAddr is a virtual network address.
type vAddr struct {
	host string
	port int
}

func (a vAddr) Network() string { return "virtual" }
func (a vAddr) String() string  { return a.host + ":" + strconv.Itoa(a.port) }
