package node

import (
	"context"
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/clock"
	"p2pstream/internal/dac"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/transport"
)

// write is one Write a supplier made on a session connection: the kinds of
// the whole frames it carried, in order, and its size in bytes.
type write struct {
	kinds []transport.Kind
	bytes int
}

// writeLog is a network whose listeners log every Write of the connections
// they accept. A write is logged before it goes out, so the log holds it by
// the time the peer has read it.
type writeLog struct {
	netx.Network
	mu     sync.Mutex
	writes []write
}

func (w *writeLog) Listen(addr string) (net.Listener, error) {
	l, err := w.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return loggedListener{l, w}, nil
}

func (w *writeLog) logged() []write {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.writes)
}

type loggedListener struct {
	net.Listener
	log *writeLog
}

func (l loggedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{conn, l.log}, nil
}

type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c loggedConn) Write(p []byte) (int, error) {
	w := write{bytes: len(p)}
	for b := p; len(b) >= 6; b = b[min(len(b), 4+int(binary.BigEndian.Uint32(b))):] {
		w.kinds = append(w.kinds, transport.Kind(b[5]))
	}
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, w)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// substrate is where a burst test runs: a network for a host and the clock
// of its nodes.
type substrate struct {
	name string
	host func(id string) netx.Network
	clk  clock.Clock
}

func substrates(t *testing.T) []substrate {
	clk := clock.NewVirtual()
	t.Cleanup(clk.AutoRun())
	vnet := netx.NewVirtual(clk, 1)
	vnet.SetDefaultLink(netx.LinkConfig{Latency: 200 * time.Microsecond})
	return []substrate{
		{"virtual", func(id string) netx.Network { return vnet.Host(id) }, clk},
		{"loopback", func(string) netx.Network { return netx.System }, nil},
	}
}

// sessionWrites streams every segment of file from a class-1 seed over a
// session a bare requester starts with one Start frame, and returns the
// seed's writes on that connection and the kinds the requester read, in
// order. The requester acks each segment when the StartReply asks for
// feedback. prepare, if set, runs on the seed before it starts.
func sessionWrites(t *testing.T, sub substrate, file *media.File, noAdapt bool, prepare func(*Node)) ([]write, []transport.Kind) {
	t.Helper()
	log := &writeLog{Network: sub.host("seed")}
	seed, err := NewSeed(Config{
		ID: "seed", Class: 1, NumClasses: 4, Policy: dac.DAC, Discovery: &stubDiscovery{},
		File: file, M: 8, TOut: time.Second, NoAdapt: noAdapt,
		Backoff: dac.BackoffConfig{Base: time.Millisecond, Factor: 2},
		Clock:   sub.clk, Network: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(seed)
	}
	if err := seed.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	conn, err := sub.host("tester").Dial(seed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	segs := make([]int, file.Segments)
	for i := range segs {
		segs[i] = i
	}
	if err := transport.Write(conn, transport.KindStart, &transport.Start{RequesterID: "tester", FileName: file.Name, Segments: segs}); err != nil {
		t.Fatal(err)
	}
	var read []transport.Kind
	feedback, acked := false, 0
	for {
		env, err := transport.Read(conn)
		if err != nil {
			t.Fatalf("after %v: %v", read, err)
		}
		read = append(read, env.Kind)
		switch env.Kind {
		case transport.KindStartReply:
			var reply transport.StartReply
			if err := env.Decode(&reply); err != nil || !reply.OK {
				t.Fatalf("start reply %+v, %v", reply, err)
			}
			feedback = reply.Feedback
		case transport.KindSegment:
			var seg transport.Segment
			if err := env.Decode(&seg); err != nil {
				t.Fatal(err)
			}
			if feedback {
				acked += len(seg.Data)
				transport.Write(conn, transport.KindAck, transport.Ack{Seq: seg.ID, Bytes: acked})
			}
		default:
			return log.logged(), read
		}
	}
}

// session lists a whole session's frames: a StartReply, segments
// Segment frames, then end.
func session(segments int, end transport.Kind) []transport.Kind {
	kinds := []transport.Kind{transport.KindStartReply}
	for range segments {
		kinds = append(kinds, transport.KindSegment)
	}
	return append(kinds, end)
}

func allKinds(writes []write) []transport.Kind {
	var kinds []transport.Kind
	for _, w := range writes {
		kinds = append(kinds, w.kinds...)
	}
	return kinds
}

// TestBurstOneWritePerStream: without feedback, a schedule whose every
// deadline lies within minPace sends the whole session — StartReply, every
// segment, SessionDone — in one write.
func TestBurstOneWritePerStream(t *testing.T) {
	for _, sub := range substrates(t) {
		t.Run(sub.name, func(t *testing.T) {
			file := &media.File{Name: "v", Segments: 16, SegmentBytes: 256, SegmentTime: time.Microsecond}
			writes, read := sessionWrites(t, sub, file, true, nil)
			want := session(16, transport.KindSessionDone)
			if len(writes) != 1 || !slices.Equal(writes[0].kinds, want) {
				t.Errorf("writes %v, want one carrying %v", writes, want)
			}
			if !slices.Equal(read, want) {
				t.Errorf("requester read %v, want %v", read, want)
			}
		})
	}
}

// TestBurstWaitsSplitWrites: deadlines minPace or more apart make the
// supplier wait before each segment, and what is pending leaves before each
// wait — the StartReply alone, then one write per segment, the last one
// carrying the SessionDone no wait separates from it. On the virtual clock
// only, where a wait lasts exactly as long as it was asked to.
func TestBurstWaitsSplitWrites(t *testing.T) {
	sub := substrates(t)[0]
	file := &media.File{Name: "v", Segments: 8, SegmentBytes: 256, SegmentTime: 10 * minPace}
	writes, _ := sessionWrites(t, sub, file, true, nil)
	want := [][]transport.Kind{{transport.KindStartReply}}
	for range 7 {
		want = append(want, []transport.Kind{transport.KindSegment})
	}
	want = append(want, []transport.Kind{transport.KindSegment, transport.KindSessionDone})
	if !slices.EqualFunc(writes, want, func(w write, k []transport.Kind) bool { return slices.Equal(w.kinds, k) }) {
		t.Errorf("writes %v, want %v", writes, want)
	}
}

// TestBurstFeedbackWritesEachFrame: the feedback plane paces every segment
// to the estimate, and each frame leaves on its own right after its wait.
func TestBurstFeedbackWritesEachFrame(t *testing.T) {
	for _, sub := range substrates(t) {
		t.Run(sub.name, func(t *testing.T) {
			file := &media.File{Name: "v", Segments: 16, SegmentBytes: 256, SegmentTime: time.Millisecond}
			writes, read := sessionWrites(t, sub, file, false, nil)
			want := session(16, transport.KindSessionDone)
			if len(writes) != len(want) || !slices.Equal(allKinds(writes), want) {
				t.Errorf("writes %v, want one per frame of %v", writes, want)
			}
			if !slices.Equal(read, want) {
				t.Errorf("requester read %v, want %v", read, want)
			}
		})
	}
}

// TestBurstBoundedWrites: a session of 16 KiB segments with no wait in it
// is cut into writes that reach maxBurst: none holds more than maxBurst
// plus one frame.
func TestBurstBoundedWrites(t *testing.T) {
	for _, sub := range substrates(t) {
		t.Run(sub.name, func(t *testing.T) {
			file := &media.File{Name: "v", Segments: 16, SegmentBytes: 16 << 10, SegmentTime: time.Microsecond}
			writes, read := sessionWrites(t, sub, file, true, nil)
			frame := 4 + 16<<10 + 16 // the length, the header, a segment's ID, quality and count, generously
			for i, w := range writes {
				if w.bytes > maxBurst+frame {
					t.Errorf("write %d holds %d bytes, above %d + one %d-byte frame", i, w.bytes, maxBurst, frame)
				}
			}
			if len(writes) < 4 {
				t.Errorf("%d writes for 256 KiB of segments", len(writes))
			}
			if want := session(16, transport.KindSessionDone); !slices.Equal(read, want) || !slices.Equal(allKinds(writes), want) {
				t.Errorf("requester read %v from writes %v, want %v", read, writes, want)
			}
		})
	}
}

// TestBurstErrorFollowsItsFrames: a supplier that finds a segment missing
// mid-session answers with a KindError, and the requester reads every frame
// pending before it, then the error, in order.
func TestBurstErrorFollowsItsFrames(t *testing.T) {
	for _, sub := range substrates(t) {
		t.Run(sub.name, func(t *testing.T) {
			file := &media.File{Name: "v", Segments: 16, SegmentBytes: 256, SegmentTime: time.Microsecond}
			writes, read := sessionWrites(t, sub, file, true, func(seed *Node) {
				partial, err := media.NewStore(file)
				if err != nil {
					t.Fatal(err)
				}
				for id := range media.SegmentID(file.Segments) {
					if id != 5 {
						partial.Put(media.SegmentContent(file, id))
					}
				}
				seed.lib = media.NewLibrary(0)
				seed.lib.Add(file, partial)
			})
			want := session(5, transport.KindError)
			if !slices.Equal(read, want) || !slices.Equal(allKinds(writes), want) {
				t.Errorf("requester read %v from writes %v, want %v", read, writes, want)
			}
		})
	}
}
