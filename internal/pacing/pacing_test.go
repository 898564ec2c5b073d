package pacing

import (
	"context"
	"testing"
	"time"

	"p2pstream/internal/bwe"
	"p2pstream/internal/clock"
)

// TestPacerNeverExceedsRate is the sliding-window property test: over any
// window between two emissions, the bytes released never exceed
// rate x window + burst (the budget cap) + one chunk (the emission that
// closes the window spends its bytes atomically).
func TestPacerNeverExceedsRate(t *testing.T) {
	const (
		rate  = 100_000 // bytes/sec
		burst = 4096
	)
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	defer stop()

	type emission struct {
		at    time.Time
		bytes int
	}
	var emissions []emission
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := New(clk, rate, burst)
		// Deterministic pseudo-random chunk sizes spanning tiny to
		// burst-sized, plus a few oversized sends exercising the debt path.
		sizes := []int{128, 4096, 977, 64, 2048, 8192, 333, 4096, 1, 1500}
		for round := 0; round < 30; round++ {
			n := sizes[round%len(sizes)]
			p.Pace(context.Background(), n)
			emissions = append(emissions, emission{clk.Now(), n})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("paced sender never finished")
	}

	maxChunk := 0
	total := 0
	for _, e := range emissions {
		if e.bytes > maxChunk {
			maxChunk = e.bytes
		}
		total += e.bytes
	}
	for i := range emissions {
		sum := 0
		for j := i; j < len(emissions); j++ {
			sum += emissions[j].bytes
			w := emissions[j].at.Sub(emissions[i].at)
			allowed := int(float64(rate)*w.Seconds()) + burst + maxChunk
			if sum > allowed {
				t.Fatalf("window [%d..%d] (%v) released %d bytes, allowed %d",
					i, j, w, sum, allowed)
			}
		}
	}

	// And the long-term rate is actually used, not just bounded: the whole
	// run must take at least (total - burst - maxChunk) / rate.
	span := emissions[len(emissions)-1].at.Sub(emissions[0].at)
	minSpan := time.Duration(float64(total-burst-maxChunk) / rate * float64(time.Second))
	if span < minSpan {
		t.Errorf("run spanned %v, want >= %v at %d B/s", span, minSpan, rate)
	}
}

// TestPacerRateChangeKeepsBudget: retargeting mid-stream neither forfeits
// earned budget nor grants a free burst.
func TestPacerRateChangeKeepsBudget(t *testing.T) {
	clk := clock.NewVirtual()
	stop := clk.AutoRun()
	defer stop()
	done := make(chan time.Duration, 1)
	go func() {
		p := New(clk, 10_000, 1000)
		p.Pace(context.Background(), 1000) // spends the initial burst
		t0 := clk.Now()
		p.Pace(context.Background(), 1000) // must wait ~100ms at 10kB/s
		p.SetRate(20_000)
		p.Pace(context.Background(), 1000) // ~50ms at the new rate
		done <- clk.Since(t0)
	}()
	select {
	case d := <-done:
		if d < 140*time.Millisecond || d > 200*time.Millisecond {
			t.Errorf("two paced sends across a rate change took %v, want ~150ms", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pacer never finished")
	}
}

// TestPacerDisabled: rate <= 0 means no pacing at all.
func TestPacerDisabled(t *testing.T) {
	clk := clock.NewVirtual()
	p := New(clk, 0, 0)
	t0 := clk.Now()
	for i := 0; i < 100; i++ {
		p.Pace(context.Background(), 1<<20)
	}
	if d := clk.Since(t0); d != 0 {
		t.Errorf("disabled pacer advanced the clock by %v", d)
	}
}

// TestPaceCancelled: a wait cut short by its context spends nothing, and a
// flow marks nothing for it.
func TestPaceCancelled(t *testing.T) {
	clk := clock.NewVirtual()
	f := NewFlow(clk, bwe.Config{Initial: 1000}, 100)
	if err := f.Pace(context.Background(), 1000, 100); err != nil { // spends the burst
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Pace(ctx, 1000, 100); err != context.Canceled {
		t.Fatalf("Pace on a cancelled context = %v, want context.Canceled", err)
	}
	if f.pacer.budget != 0 || len(f.marks) != 1 || f.sent != 100 {
		t.Errorf("cancelled wait left budget %d, %d marks, %d bytes sent; want 0, 1, 100", f.pacer.budget, len(f.marks), f.sent)
	}
}

// TestFlowAckClosesMarksInOrder: a cumulative ack closes exactly the sends
// it covers, oldest first, and a later one picks up where it stopped — a
// partial ack closes nothing it does not cover in full.
func TestFlowAckClosesMarksInOrder(t *testing.T) {
	clk := clock.NewVirtual()
	f := NewFlow(clk, bwe.Config{Initial: 1000}, 0)
	for _, n := range []int{100, 200, 300} {
		if err := f.Pace(context.Background(), 0, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		total       int64
		open, acked int64
	}{
		{50, 3, 0},    // inside the first send: nothing closes
		{250, 2, 100}, // the first send, not the second
		{250, 2, 100}, // a repeated count closes nothing twice
		{600, 0, 600}, // the rest at once
	} {
		f.Acked(step.total)
		if int64(len(f.marks)) != step.open || f.acked != step.acked {
			t.Errorf("after ack %d: %d marks open, closed up to %d; want %d, %d",
				step.total, len(f.marks), f.acked, step.open, step.acked)
		}
	}
}
