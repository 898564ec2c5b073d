package core

import (
	"fmt"
)

// ExhaustiveMinDelaySlots searches every legal assignment of one window for
// the given suppliers and returns the minimum buffering delay any of them
// achieves. It exists to validate Theorem 1 in tests and in p2psim's
// fig1; it refuses windows larger than 16 segments.
//
// Every supplier transmits its assigned segments in ascending order (for a
// fixed segment set this ordering minimizes that supplier's worst slack, by
// an exchange argument), and because quota·period = window for every
// supplier, supplier i's r-th-from-last transmission always completes at
// window - (r-1)·period_i. The search walks segments from the window's end,
// branching on which supplier takes each one, with two exact prunings:
// branches whose running worst slack already reaches the best known delay,
// and branches that differ only by permuting same-class suppliers in
// identical states.
func ExhaustiveMinDelaySlots(suppliers []Supplier) (int64, error) {
	if err := validateSuppliers(suppliers); err != nil {
		return 0, err
	}
	sorted := sortedByOffer(suppliers)
	w := windowOf(sorted)
	if w > 16 {
		return 0, fmt.Errorf("core: exhaustive search window %d too large (max 16)", w)
	}
	n := len(sorted)
	quota := make([]int, n)
	period := make([]int64, n)
	taken := make([]int, n) // segments assigned so far (from the end)
	for i, s := range sorted {
		quota[i] = w >> uint(s.Class)
		period[i] = int64(1) << uint(s.Class)
	}

	best := int64(w + 1) // any assignment's delay is at most w... plus slack margin
	// A safe upper bound: the worst slack cannot exceed w (arrival <= w,
	// deadline >= 0), so start just above it.
	var recurse func(seg int, worst int64)
	recurse = func(seg int, worst int64) {
		if worst >= best {
			return
		}
		if seg < 0 {
			best = worst
			return
		}
		for i := 0; i < n; i++ {
			if taken[i] >= quota[i] {
				continue
			}
			// Symmetry pruning: a same-period supplier in the same state
			// earlier in the order would produce an identical subtree.
			dup := false
			for j := 0; j < i; j++ {
				if period[j] == period[i] && taken[j] == taken[i] && quota[j] == quota[i] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			completion := int64(w) - int64(taken[i])*period[i]
			slack := completion - int64(seg)
			next := worst
			if slack > next {
				next = slack
			}
			taken[i]++
			recurse(seg-1, next)
			taken[i]--
		}
	}
	recurse(w-1, 0)
	return best, nil
}
