package node

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"p2pstream/internal/media"
	"p2pstream/internal/observe"
	"p2pstream/internal/transport"
)

// TestRelayedDowngradeKeepsItsQuality: a peer that once took a downgraded
// rendition of a segment re-supplies it labelled with that quality, on
// both data planes. Labelled full quality, the short segment is refused by
// the next requester's store on every retry. relay resumes a partial store
// holding segments 4 and 5 at quality 1; with one seed left it serves the
// third peer every other segment, so exactly one of the two is relayed.
func TestRelayedDowngradeKeepsItsQuality(t *testing.T) {
	for _, noAdapt := range []bool{false, true} {
		name := map[bool]string{false: "adaptive", true: "fixed"}[noAdapt]
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			c := newCluster(t)
			start := func(mk func(Config) (*Node, error), id string) *Node {
				cfg := c.config(id, 1)
				cfg.NoAdapt = noAdapt
				return c.start(mk(cfg))
			}
			start(NewSeed, "seed1")
			seed2 := start(NewSeed, "seed2")
			relay := start(NewRequester, "relay")

			f := testFile()
			partial, err := media.NewStore(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []media.SegmentID{4, 5} {
				if err := partial.Put(media.SegmentContentAt(f, id, 1)); err != nil {
					t.Fatal(err)
				}
			}
			relay.mu.Lock()
			relay.pending[f.Name] = partial
			relay.mu.Unlock()
			if _, err := relay.Request(ctx, ""); err != nil {
				t.Fatal(err)
			}
			if got := relay.Store().Downgraded(); got != 2 {
				t.Fatalf("relay holds %d downgraded segments, want 2", got)
			}

			seed2.Close() // leaves seed1 and relay: the third peer needs both
			third := start(NewRequester, "third")
			report, err := third.Request(ctx, "")
			if err != nil {
				t.Fatalf("served by a relay of a downgraded segment: %v", err)
			}
			if report.Downgraded != 1 || report.MaxQuality != 1 {
				t.Errorf("report counts %d downgraded segments (max quality %d), want 1 (1)",
					report.Downgraded, report.MaxQuality)
			}
			relayed := 0
			for _, id := range []media.SegmentID{4, 5} {
				if third.Store().QualityOf(id) != 1 {
					continue
				}
				relayed++
				got, _ := third.Store().Get(id)
				if want := media.SegmentContentAt(f, id, 1); !bytes.Equal(got.Data, want.Data) {
					t.Errorf("relayed segment %d is not the quality-1 rendition", id)
				}
			}
			if relayed != 1 || third.Store().Downgraded() != 1 || !third.Store().Complete() {
				t.Errorf("third peer holds %d relayed and %d downgraded segments, complete=%v; want 1, 1, true",
					relayed, third.Store().Downgraded(), third.Store().Complete())
			}
		})
	}
}

// TestDowngradeSubsamplesTheStore: a supplier sends only what it holds.
// It holds every segment at quality 2 and is driven down its ladder by a
// requester that acks each segment 12 ms late, against a send interval of
// 8 ms. While its ladder stands at q1 it sends the q2 renditions it holds,
// not better ones it does not have; past q2 it sends their subsamples. Every
// frame is the canonical rendition at the quality it is labelled with.
func TestDowngradeSubsamplesTheStore(t *testing.T) {
	c := newCluster(t)
	f := testFile()
	store, err := media.NewStore(f)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, f.Segments)
	for id := range ids {
		ids[id] = id
		if err := store.Put(media.SegmentContentAt(f, media.SegmentID(id), 2)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var steps []int
	relay := c.holder("relay", f, store, observe.Func(func(ev observe.Event) {
		if ev.Type == observe.BitrateDowngrade {
			mu.Lock()
			steps = append(steps, ev.Quality)
			mu.Unlock()
		}
	}))
	sess, err := c.dialStart(relay.Addr(), transport.Start{RequesterID: "x", FileName: f.Name, Segments: ids})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	segs, err := sess.readAll(c.clk, 12*time.Millisecond)
	if err != nil || len(segs) != f.Segments {
		t.Fatalf("read %d of %d segments: %v", len(segs), f.Segments, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(steps, 1) {
		t.Fatalf("ladder steps %v never reached q1", steps)
	}
	for _, seg := range segs {
		want := media.SegmentContentAt(f, media.SegmentID(seg.ID), media.Quality(seg.Quality))
		if seg.Quality < 2 {
			t.Errorf("segment %d went out at q%d, better than the q2 it is held at", seg.ID, seg.Quality)
		} else if !bytes.Equal(seg.Data, want.Data) {
			t.Errorf("segment %d at q%d is not its rendition (%d bytes)", seg.ID, seg.Quality, len(seg.Data))
		}
	}
}

// TestFixedScheduleWaits pins the one deadline rule of the send loop on
// both sides of minPace: without feedback, a schedule whose every wait is
// shorter is sent without sleeping (the session lasts what the link takes,
// not the schedule's length), and one of longer waits is kept to (the
// session lasts the schedule) — on either plane. The adaptive plane has no
// case beneath minPace: its pacer releases a segment per 0.8 of the
// schedule's interval (25% headroom over the committed rate) and sleeps for
// it whatever the gate does, so the session's length says nothing about the
// gate — and each of those short sleeps overshoots on the virtual clock,
// stretching a 640 µs schedule to 2.6 ms with or without the rule.
func TestFixedScheduleWaits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dt       time.Duration
		paced    bool
		feedback bool
	}{
		{"waits beneath minPace", minPace / 10, false, false},
		{"waits above minPace", minPace, true, false},
		{"adaptive waits above minPace", minPace, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			file := &media.File{Name: "video", Segments: 64, SegmentBytes: 256, SegmentTime: tc.dt}
			config := func(id string) Config {
				cfg := c.config(id, 1)
				cfg.File, cfg.NoAdapt = file, !tc.feedback
				return cfg
			}
			c.start(NewSeed(config("seed1")))
			c.start(NewSeed(config("seed2")))
			report, err := c.start(NewRequester(config("peer1"))).Request(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			// Each class-1 seed sends 32 segments, one every 2·δt.
			schedule := 32 * 2 * tc.dt
			if link := time.Millisecond; tc.paced && report.Duration < schedule-link {
				t.Errorf("session took %v of a %v schedule: the supplier ran ahead of it", report.Duration, schedule)
			} else if !tc.paced && report.Duration >= schedule {
				t.Errorf("session took %v, the whole %v schedule: the supplier slept for waits of %v", report.Duration, schedule, 2*tc.dt)
			}
		})
	}
}

// TestAckWithStartReachesTheFlow: a requester may write its first Ack in the
// same write as its Start. The supplier's connection Reader takes both in at
// once, and the session's ack reader is handed that Reader, so the Ack still
// reaches the session's pacing.Flow, ahead of the acks that follow.
func TestAckWithStartReachesTheFlow(t *testing.T) {
	c := newCluster(t)
	seed, err := NewSeed(c.config("seed", 1))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var acks []transport.Ack
	seed.testHookAck = func(ack transport.Ack) {
		mu.Lock()
		acks = append(acks, ack)
		mu.Unlock()
	}
	c.start(seed, nil)

	f := testFile()
	ids := make([]int, f.Segments)
	for id := range ids {
		ids[id] = id
	}
	early := transport.Ack{Seq: -1, Bytes: 0}
	burst, err := transport.Append(nil, transport.KindStart, &transport.Start{RequesterID: "x", FileName: f.Name, Segments: ids})
	if err == nil {
		burst, err = transport.Append(burst, transport.KindAck, early)
	}
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.dial(seed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	var reply transport.StartReply
	if err := transport.ReadExpect(conn, transport.KindStartReply, &reply); err != nil || !reply.OK || !reply.Feedback {
		t.Fatalf("start reply %+v, %v; want a feedback session", reply, err)
	}
	sess := &abortableSession{conn: conn}
	segs, err := sess.readAll(c.clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess.close()
	c.waitIdle(seed) // the ack reader has seen the hangup: every ack is in

	mu.Lock()
	defer mu.Unlock()
	if len(acks) != len(segs)+1 || acks[0] != early {
		t.Fatalf("the flow was fed %d acks starting %v, want the %d segments' acks after %v", len(acks), acks[:min(len(acks), 1)], len(segs), early)
	}
}
