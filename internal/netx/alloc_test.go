//go:build !race

package netx

import "testing"

// TestChunkDeliveryAllocs pins the vnet data path (chunkOp) at zero
// allocations per chunk in steady state, bare and paced. The handful of
// timer allocations each clock advance costs amortizes below one per chunk
// (AllocsPerRun, like go test's allocs/op, reports whole allocations per
// op), so any allocation on the per-chunk path itself fails. Not built
// under -race, where sync.Pool drops puts at random.
func TestChunkDeliveryAllocs(t *testing.T) {
	for name, paced := range map[string]bool{"vnet": false, "paced": true} {
		t.Run(name, func(t *testing.T) {
			op := chunkOp(t, paced)
			for i := 0; i < 512; i++ {
				op() // fill the chunk pools
			}
			if got := testing.AllocsPerRun(6400, op); got != 0 {
				t.Errorf("%.0f allocs per chunk, want 0", got)
			}
		})
	}
}
