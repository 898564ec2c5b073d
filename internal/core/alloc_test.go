//go:build !race

package core

import "testing"

// TestDelaySlotsAllocs pins the Theorem 1 check that runs on every
// admission at zero allocations: DelaySlots reads the assignment's segment
// lists in place. The package-level Assign makes four (the assignment, the
// sorted suppliers, the list headers, one array backing its work arrays and
// every list). Not built under -race, which instruments allocation.
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

// TestAssignInPlaceAllocs pins Assign on an assignment that has held a
// session of the same shape at zero allocations: suppliers, list headers
// and the backing array are all reused.
func TestAssignInPlaceAllocs(t *testing.T) {
	suppliers := figure1Suppliers()
	var a Assignment
	if err := a.Assign(suppliers); err != nil {
		t.Fatal(err)
	}
	var err error
	if got := testing.AllocsPerRun(1000, func() { err = a.Assign(suppliers) }); got != 0 || err != nil {
		t.Errorf("%.0f allocs per Assign on a warm assignment (err %v), want 0", got, err)
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
}
