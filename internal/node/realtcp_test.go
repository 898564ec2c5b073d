package node

import (
	"context"
	"fmt"
	"testing"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
)

// TestEndToEndSessionRealTCP smoke-tests the same stack over real TCP on
// the wall clock. Timing assertions stay lenient: wall-clock scheduling
// jitter is exactly what the virtual variant above exists to avoid.
func TestEndToEndSessionRealTCP(t *testing.T) {
	srv := directory.NewServer(1)
	l, err := netx.System.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	file := &media.File{Name: "video", Segments: 8, SegmentBytes: 256, SegmentTime: 5 * time.Millisecond}
	cfg := func(id string, class bandwidth.Class) Config {
		return Config{
			ID: id, Class: class, NumClasses: 4, Policy: dac.DAC,
			DirectoryAddr: l.Addr().String(), File: file, M: 8,
			TOut:    time.Second,
			Backoff: dac.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2},
			Seed:    1,
			// Clock and Network left nil: wall clock over real TCP.
		}
	}
	for _, id := range []string{"s1", "s2"} {
		s, err := NewSeed(cfg(id, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}
	req, err := NewRequester(cfg("r", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { req.Close() })

	report, err := req.RequestUntilAdmitted(context.Background(), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Store().Complete() {
		t.Error("store incomplete")
	}
	if report.Bytes != int64(file.Segments*file.SegmentBytes) {
		t.Errorf("Bytes = %d", report.Bytes)
	}
}

// loopbackSessions runs n sequential class-1 requesters against three seeds
// of classes 1, 2 and 2 (R0/2 + R0/4 + R0/4 = R0: every session uses all
// three) on real loopback TCP and the wall clock, with the stream-bulk
// benchmark's file: 1,024 segments of 16 KiB at δt = 10 µs, so the schedule
// never binds and every session streams as fast as the stack goes. seedFixed
// and reqFixed set NoAdapt on the seeds and on the requesters. It returns the
// sessions lost — a request that failed, or a store that is not the whole
// file — and the segments that arrived downgraded.
func loopbackSessions(t *testing.T, n int, seedFixed, reqFixed bool) (lost, downgraded int) {
	t.Helper()
	srv := directory.NewServer(1)
	dirAddr, err := srv.Start(nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	file := &media.File{Name: "bulk", Segments: 1024, SegmentBytes: 16 << 10, SegmentTime: 10 * time.Microsecond}
	config := func(id string, class bandwidth.Class, fixed bool, seed int64) Config {
		return Config{
			ID: id, Class: class, NumClasses: 4, Policy: dac.DAC, DirectoryAddr: dirAddr,
			File: file, M: 8, TOut: time.Second, Seed: seed, NoAdapt: fixed,
			Backoff: dac.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 64 * time.Millisecond},
		}
	}
	for i, class := range []bandwidth.Class{1, 2, 2} {
		s, err := NewSeed(config(fmt.Sprintf("s%d", i), class, seedFixed, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}
	for i := 0; i < n; i++ {
		req, err := NewRequester(config(fmt.Sprintf("r%d", i), 1, reqFixed, int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		report, err := req.RequestUntilAdmitted(ctx, "", 50)
		cancel()
		switch {
		case err != nil:
			lost++
			t.Logf("session %d lost: %v", i, err)
		case !req.Store().Complete():
			lost++
			t.Logf("session %d ended with %d/%d segments", i, req.Store().Count(), file.Segments)
		default:
			downgraded += report.Downgraded
		}
		req.Close()
	}
	return lost, downgraded
}

// TestAdaptiveSessionsSurviveClose: a supplier that closes a feedback
// session while the requester's acks still sit unread in its socket makes
// the kernel answer with a reset instead of a FIN, and the requester loses
// the segments it had not read yet ("unexpected EOF", "stream ended inside
// a frame"). The supplier reads until the requester hangs up, so no session
// is lost.
func TestAdaptiveSessionsSurviveClose(t *testing.T) {
	lost, downgraded := loopbackSessions(t, 40, false, false)
	t.Logf("40 adaptive sessions: %d downgraded segments", downgraded)
	if lost != 0 {
		t.Errorf("%d of 40 adaptive sessions lost on idle loopback", lost)
	}
}

// TestMixedPlanesAgree: the supplier picks the plane and tells the requester
// in its StartReply, so peers configured differently still agree on it. A
// requester that acked a supplier which never reads acks would fill the
// supplier's socket and get the same reset as above.
func TestMixedPlanesAgree(t *testing.T) {
	for _, tc := range []struct {
		name                string
		seedFixed, reqFixed bool
	}{
		{"fixed seeds, adaptive requesters", true, false},
		{"adaptive seeds, fixed requesters", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if lost, _ := loopbackSessions(t, 40, tc.seedFixed, tc.reqFixed); lost != 0 {
				t.Errorf("%d of 40 sessions lost", lost)
			}
		})
	}
}
