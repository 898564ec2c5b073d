package splitmix

import "testing"

// TestReferenceStream pins the generator to the published splitmix64
// sequence: netx's jitter streams and the harness's Zipf and backoff streams
// are functions of these bits.
func TestReferenceStream(t *testing.T) {
	r := Rand(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d from seed 0: %#x, want %#x", i, got, want)
		}
	}
}

func TestRanges(t *testing.T) {
	r := Rand(42)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		if n := r.Int63n(7); n < 0 || n >= 7 {
			t.Fatalf("Int63n(7) = %d", n)
		}
	}
	if n := r.Int63n(0); n != 0 {
		t.Fatalf("Int63n(0) = %d, want 0", n)
	}
}
