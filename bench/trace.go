package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of the public seams (node.Config.Network,
// node.Config.Discovery, the call into scenario.Run or system.Run); spans
// inside the program are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"`      // one requester ID (or run label) per request
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one finished span and returns its ID.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// reset drops the spans recorded so far (set-up and warm-up), so a trace
// holds the timed window only.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the lengths of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// writeFile dumps the spans as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wireCounts are the counts taken at the netx boundary of a traced run:
// every connection dialed and every write, by either end.
type wireCounts struct {
	dials, writes, bytes atomic.Int64
	probes               atomic.Int64 // observe.ProbeServed events
	rejections           atomic.Int64 // SessionReport.Rejections, summed
}

// Observe counts the suppliers' answered probes.
func (c *wireCounts) Observe(ev observe.Event) {
	if ev.Type == observe.ProbeServed {
		c.probes.Add(1)
	}
}

// countingNet is real TCP with the counters on. With keep set it also
// keeps every connection it dials, whose dial→close intervals are how one
// requester's probe and session connections become spans.
type countingNet struct {
	counts *wireCounts
	keep   bool
	mu     sync.Mutex
	conns  []*countedConn
}

func (n *countingNet) Listen(addr string) (net.Listener, error) {
	l, err := netx.System.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countedListener{l, n.counts}, nil
}

func (n *countingNet) Dial(addr string) (net.Conn, error) {
	start := time.Now()
	conn, err := netx.System.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.counts.dials.Add(1)
	c := &countedConn{Conn: conn, counts: n.counts, start: start}
	if n.keep {
		n.mu.Lock()
		n.conns = append(n.conns, c)
		n.mu.Unlock()
	}
	return c, nil
}

type countedListener struct {
	net.Listener
	counts *wireCounts
}

func (l countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: conn, counts: l.counts}, nil
}

type countedConn struct {
	net.Conn
	counts *wireCounts
	start  time.Time
	once   sync.Once
	end    time.Time
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { c.end = time.Now() })
	return err
}

// requestTrace collects what one requester does between its birth and its
// close: the discovery calls as they happen, the connections it dials, and
// — once the request has returned — the spans built from them.
type requestTrace struct {
	tr    *tracer
	id    string
	net   *countingNet // the node's own network: probe and session dials
	mu    sync.Mutex
	calls []discoveryCall
}

type discoveryCall struct {
	name       string
	start, end time.Time
}

func newRequestTrace(tr *tracer, counts *wireCounts, id string) *requestTrace {
	return &requestTrace{tr: tr, id: id, net: &countingNet{counts: counts, keep: true}}
}

// finish turns the request into spans: the request itself, each discovery
// call made inside it, and each dialed connection — the last `suppliers` of
// them carried the session, the earlier ones a probe (or a reminder) each.
func (rt *requestTrace) finish(start, end time.Time, suppliers int) {
	root := rt.tr.add(0, "node.request", rt.id, start, end)
	rt.mu.Lock()
	calls := rt.calls
	rt.mu.Unlock()
	for _, c := range calls {
		rt.tr.add(root, c.name, rt.id, c.start, c.end)
	}
	rt.net.mu.Lock()
	conns := append([]*countedConn(nil), rt.net.conns...)
	rt.net.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].start.Before(conns[j].start) })
	first := max(len(conns)-suppliers, 0)
	for _, c := range conns[:first] {
		rt.tr.add(root, "node.probe", rt.id, c.start, c.end)
	}
	if session := conns[first:]; len(session) > 0 {
		// The session connections overlap (one per supplier, received
		// concurrently), so the session is one span from the first
		// trigger dial to the last close.
		last := session[0].end
		for _, c := range session {
			if c.end.After(last) {
				last = c.end
			}
		}
		rt.tr.add(root, "node.session", rt.id, session[0].start, last)
	}
}

// timedDiscovery records a span-to-be around the discovery calls a request
// makes: the candidate lookup and the post-session registration.
type timedDiscovery struct {
	inner node.Discovery
	rt    *requestTrace
}

func (d timedDiscovery) note(name string, start time.Time) {
	end := time.Now()
	d.rt.mu.Lock()
	d.rt.calls = append(d.rt.calls, discoveryCall{name, start, end})
	d.rt.mu.Unlock()
}

func (d timedDiscovery) Register(ctx context.Context, reg transport.Register) error {
	defer d.note("node.register", time.Now())
	return d.inner.Register(ctx, reg)
}

func (d timedDiscovery) Unregister(ctx context.Context, id, object string) error {
	return d.inner.Unregister(ctx, id, object) // on Close, after the request
}

func (d timedDiscovery) Candidates(ctx context.Context, object string, m int, exclude string) ([]transport.Candidate, error) {
	defer d.note("node.lookup", time.Now())
	return d.inner.Candidates(ctx, object, m, exclude)
}

func (d timedDiscovery) Close() error { return d.inner.Close() }
