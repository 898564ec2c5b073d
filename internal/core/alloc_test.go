//go:build !race

package core

import "testing"

// TestDelaySlotsAllocs pins the Theorem 1 check that runs on every
// admission at zero allocations: DelaySlots reads the assignment's segment
// lists in place. Assign itself makes four (the assignment, the sorted
// suppliers, the list headers, one array backing its work arrays and every
// list). Not built under -race, which instruments allocation.
func TestDelaySlotsAllocs(t *testing.T) {
	a, err := Assign(figure1Suppliers())
	if err != nil {
		t.Fatal(err)
	}
	var delay int64
	if got := testing.AllocsPerRun(1000, func() { delay = a.DelaySlots() }); got != 0 {
		t.Errorf("%.0f allocs per DelaySlots, want 0", got)
	}
	if delay != OptimalDelaySlots(len(a.Suppliers)) {
		t.Errorf("delay %d slots, Theorem 1 wants %d", delay, len(a.Suppliers))
	}
	suppliers := figure1Suppliers()
	if got := testing.AllocsPerRun(1000, func() { a, err = Assign(suppliers) }); got > 4 || err != nil {
		t.Errorf("%.0f allocs per Assign (err %v), want at most 4", got, err)
	}
}
