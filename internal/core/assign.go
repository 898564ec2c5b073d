// Package core implements OTS_p2p, the paper's optimal media data assignment
// algorithm (Section 3), together with baseline assignments and a schedule
// analyzer that computes the buffering delay any assignment induces.
//
// Setting. A requesting peer Pr receives one CBR media file from n supplying
// peers Ps_1..Ps_n whose out-bound bandwidth offers are R0/2^c_i and sum to
// exactly R0 (the playback rate). The file is split into equal segments of
// playback time δt. A class-c supplier needs 2^c·δt to transmit one segment,
// so within a window of W = 2^k segments (k = the numerically largest, i.e.
// lowest, class present) a class-c supplier transmits exactly W/2^c segments
// and all suppliers stay fully utilized. The assignment decides which
// segments each supplier transmits; segments are transmitted by each
// supplier in ascending order, concurrently across suppliers.
//
// The buffering delay of an assignment is the smallest D such that playback
// starting at D never stalls: segment s must be fully received by D + s·δt.
// Theorem 1: the minimum achievable delay is n·δt, and Algorithm OTS_p2p
// attains it by walking the window from its last segment down and handing
// each segment to an unfilled supplier.
//
// Faithfulness note. The ICDCS pseudo-code (Figure 2) reads as a plain
// round-robin over suppliers in descending-offer order. That literal
// transcription reproduces the paper's 4-supplier example but is NOT optimal
// in general: with classes {2,3,3,3,3,4,4,4,5,5} it yields delay 13·δt
// instead of the n·δt = 10·δt that Theorem 1 promises (see
// TestRoundRobinAssignNotOptimal). Because every supplier's transmissions
// finish at the fixed times p_i, 2p_i, ..., W (q_i·p_i = W for all i), the
// assignment is really a matching of segments to transmission slots, and the
// optimal rule — which also reproduces Figure 1's Assignment II exactly — is:
// walking segments from W-1 down, give each segment to the unfilled supplier
// whose next reverse slot completes latest, breaking ties round-robin
// (least-recently-assigned first, starting from the fastest supplier). An
// exchange argument shows this greedy is optimal, and Hall's condition shows
// the optimum is exactly n·δt whenever offers sum to R0:
// Σ_i floor(y/p_i) <= y·Σ_i 1/p_i = y for every y >= 0. Assign implements
// the optimal rule; RoundRobinAssign keeps the literal transcription as a
// baseline.
//
// All times in this package are integer counts of δt ("slots"), which keeps
// the arithmetic exact; adapters convert to time.Duration at the edges.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"p2pstream/internal/bandwidth"
)

// Supplier is one supplying peer participating in a streaming session.
type Supplier struct {
	// ID names the peer (opaque to the algorithm).
	ID string
	// Class is the peer's bandwidth class: it offers R0/2^Class.
	Class bandwidth.Class
}

// Offer returns the supplier's out-bound bandwidth offer.
func (s Supplier) Offer() bandwidth.Fraction { return s.Class.Offer() }

// Assignment maps the segments of one window to suppliers. Segment indices
// are within-window (0 <= seg < Window); the pattern repeats every Window
// segments for the rest of the file (paper, Section 3).
type Assignment struct {
	// Suppliers are the session's suppliers sorted by descending offer
	// (ascending class number), ties kept in input order.
	Suppliers []Supplier
	// Window is 2^k where k is the largest class number among Suppliers.
	Window int
	// Segments[i] lists the within-window segments transmitted by
	// Suppliers[i], in ascending order (which is also transmission order).
	Segments [][]int

	// work backs Assign's per-supplier arrays and every list of Segments;
	// the next Assign on this assignment reuses it.
	work []int
}

// Common assignment errors.
var (
	ErrNoSuppliers = errors.New("core: no suppliers")
	ErrSumNotR0    = errors.New("core: supplier offers do not sum to R0")
)

func validateSuppliers(suppliers []Supplier) error {
	if len(suppliers) == 0 {
		return ErrNoSuppliers
	}
	var sum bandwidth.Fraction
	for _, s := range suppliers {
		if !s.Class.Valid(bandwidth.MaxClass) {
			return fmt.Errorf("core: supplier %q has invalid %v", s.ID, s.Class)
		}
		sum += s.Offer()
	}
	if sum != bandwidth.R0 {
		return fmt.Errorf("%w: got %v", ErrSumNotR0, sum)
	}
	return nil
}

// sortedByOffer returns the suppliers sorted by descending offer, stable.
// slices.SortStableFunc, unlike package sort's slice sorts, allocates no
// reflection swapper.
func sortedByOffer(suppliers []Supplier) []Supplier {
	out := append([]Supplier(nil), suppliers...)
	sortByOffer(out)
	return out
}

func sortByOffer(suppliers []Supplier) {
	slices.SortStableFunc(suppliers, func(a, b Supplier) int { return cmp.Compare(a.Class, b.Class) })
}

// windowOf returns W = 2^k for the lowest class (largest class number).
func windowOf(sorted []Supplier) int {
	k := sorted[len(sorted)-1].Class
	return 1 << uint(k)
}

// Assign runs Algorithm OTS_p2p and returns the optimal assignment. The
// suppliers' offers must sum to exactly R0; the input order does not matter
// (Assign sorts by descending offer as the algorithm requires). The
// resulting buffering delay is len(suppliers)·δt (Theorem 1).
//
// Rule (see the package comment for why this is the correct reading of the
// paper's Figure 2): walk segments from W-1 down; give each segment to the
// supplier with remaining quota whose next reverse transmission slot
// completes latest (supplier i's r-th-from-last transmission completes at
// W - (r-1)·2^c_i slots), breaking ties by least-recently-assigned starting
// from the fastest supplier.
func Assign(suppliers []Supplier) (*Assignment, error) {
	a := new(Assignment)
	if err := a.Assign(suppliers); err != nil {
		return nil, err
	}
	return a, nil
}

// Assign is the package-level Assign computed into a, overwriting what a
// held: Suppliers, Segments and the array behind them are reused where they
// are large enough, so a caller that keeps one Assignment for session after
// session (the simulator checks Theorem 1 on every admission) allocates
// nothing once it has seen its largest session. Everything read from a
// before the call is invalid after it. On error a is unchanged.
func (a *Assignment) Assign(suppliers []Supplier) error {
	if err := validateSuppliers(suppliers); err != nil {
		return err
	}
	a.Suppliers = append(a.Suppliers[:0], suppliers...)
	sorted := a.Suppliers
	sortByOffer(sorted)
	n, w := len(sorted), windowOf(sorted)
	a.Window = w
	a.Segments = slices.Grow(a.Segments[:0], n)[:n]
	// One array backs the four per-supplier work arrays and every segment
	// list: quotas sum to w, and each list is capped at its quota.
	need := 4*n + w
	if cap(a.work) < need {
		a.work = make([]int, need)
	}
	buf := a.work[:need]
	quota, period := buf[:n], buf[n:2*n]
	next := buf[2*n : 3*n]     // completion slot of supplier's next reverse slot
	lastPick := buf[3*n : 4*n] // step at which supplier was last chosen
	lists := buf[4*n:]
	for i, s := range sorted {
		quota[i] = w >> uint(s.Class)
		period[i] = 1 << uint(s.Class)
		next[i] = w
		lastPick[i] = i - n // fastest supplier looks least recently assigned
		a.Segments[i], lists = lists[:0:quota[i]], lists[quota[i]:]
	}
	for step, seg := 0, w-1; seg >= 0; step, seg = step+1, seg-1 {
		pick := -1
		for i := 0; i < n; i++ {
			if len(a.Segments[i]) >= quota[i] {
				continue
			}
			if pick < 0 || next[i] > next[pick] ||
				(next[i] == next[pick] && lastPick[i] < lastPick[pick]) {
				pick = i
			}
		}
		a.Segments[pick] = append(a.Segments[pick], seg)
		next[pick] -= period[pick]
		lastPick[pick] = step
	}
	// Segments were handed out in descending order; transmission order is
	// ascending.
	for i := range a.Segments {
		reverse(a.Segments[i])
	}
	return nil
}

// RoundRobinAssign is the literal transcription of the paper's Figure 2
// pseudo-code: walk segments from W-1 down, handing them to suppliers in
// descending-offer round-robin order, skipping suppliers whose quota is
// full. It reproduces the paper's Figure 1 example but is not optimal for
// every class mix (see the package comment); it is kept as a baseline and
// as documentation of the discrepancy.
func RoundRobinAssign(suppliers []Supplier) (*Assignment, error) {
	if err := validateSuppliers(suppliers); err != nil {
		return nil, err
	}
	sorted := sortedByOffer(suppliers)
	w := windowOf(sorted)
	a := &Assignment{
		Suppliers: sorted,
		Window:    w,
		Segments:  make([][]int, len(sorted)),
	}
	quota := make([]int, len(sorted))
	for i, s := range sorted {
		quota[i] = w >> uint(s.Class)
	}
	seg := w - 1
	for seg >= 0 {
		for i := range sorted {
			if len(a.Segments[i]) < quota[i] && seg >= 0 {
				a.Segments[i] = append(a.Segments[i], seg)
				seg--
			}
		}
	}
	for i := range a.Segments {
		reverse(a.Segments[i])
	}
	return a, nil
}

// BlockAssign is the naive baseline used as "Assignment I" in the paper's
// Figure 1: the window is cut into contiguous ascending blocks, the fastest
// supplier taking the first block. It is correct but suboptimal: its delay
// exceeds n·δt whenever suppliers are heterogeneous.
func BlockAssign(suppliers []Supplier) (*Assignment, error) {
	if err := validateSuppliers(suppliers); err != nil {
		return nil, err
	}
	sorted := sortedByOffer(suppliers)
	w := windowOf(sorted)
	a := &Assignment{
		Suppliers: sorted,
		Window:    w,
		Segments:  make([][]int, len(sorted)),
	}
	next := 0
	for i, s := range sorted {
		quota := w >> uint(s.Class)
		for j := 0; j < quota; j++ {
			a.Segments[i] = append(a.Segments[i], next)
			next++
		}
	}
	return a, nil
}

// AscendingAssign is OTS_p2p mirrored: the same round-robin hand-out but
// walking the window from segment 0 upward. It serves as a second baseline
// showing that the downward walk is what produces optimality.
func AscendingAssign(suppliers []Supplier) (*Assignment, error) {
	if err := validateSuppliers(suppliers); err != nil {
		return nil, err
	}
	sorted := sortedByOffer(suppliers)
	w := windowOf(sorted)
	a := &Assignment{
		Suppliers: sorted,
		Window:    w,
		Segments:  make([][]int, len(sorted)),
	}
	quota := make([]int, len(sorted))
	for i, s := range sorted {
		quota[i] = w >> uint(s.Class)
	}
	seg := 0
	for seg < w {
		for i := range sorted {
			if len(a.Segments[i]) < quota[i] && seg < w {
				a.Segments[i] = append(a.Segments[i], seg)
				seg++
			}
		}
	}
	return a, nil
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Validate checks the structural invariants of an assignment: the window is
// the power of two matching the lowest class, every within-window segment is
// assigned to exactly one supplier, each supplier holds exactly its quota in
// ascending order, and offers sum to R0.
func (a *Assignment) Validate() error {
	if err := validateSuppliers(a.Suppliers); err != nil {
		return err
	}
	if want := windowOf(sortedByOffer(a.Suppliers)); a.Window != want {
		return fmt.Errorf("core: window %d, want %d", a.Window, want)
	}
	if len(a.Segments) != len(a.Suppliers) {
		return fmt.Errorf("core: %d segment lists for %d suppliers", len(a.Segments), len(a.Suppliers))
	}
	seen := make([]bool, a.Window)
	for i, list := range a.Segments {
		quota := a.Window >> uint(a.Suppliers[i].Class)
		if len(list) != quota {
			return fmt.Errorf("core: supplier %d has %d segments, want quota %d", i, len(list), quota)
		}
		prev := -1
		for _, seg := range list {
			if seg < 0 || seg >= a.Window {
				return fmt.Errorf("core: supplier %d segment %d out of window [0,%d)", i, seg, a.Window)
			}
			if seg <= prev {
				return fmt.Errorf("core: supplier %d segments not strictly ascending at %d", i, seg)
			}
			if seen[seg] {
				return fmt.Errorf("core: segment %d assigned twice", seg)
			}
			seen[seg] = true
			prev = seg
		}
	}
	for seg, ok := range seen {
		if !ok {
			return fmt.Errorf("core: segment %d unassigned", seg)
		}
	}
	return nil
}

// SupplierOf returns the index (into Suppliers) of the supplier responsible
// for the given absolute segment of the file, applying the window repetition.
func (a *Assignment) SupplierOf(segment int) (int, error) {
	if segment < 0 {
		return 0, fmt.Errorf("core: negative segment %d", segment)
	}
	within := segment % a.Window
	for i, list := range a.Segments {
		for _, seg := range list {
			if seg == within {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("core: segment %d not assigned", segment)
}

// TransmissionList returns, for supplier i, the ascending absolute segment
// IDs it transmits for a file of numSegments segments (window repetition
// applied). A partial final window transmits only the segments below
// numSegments.
func (a *Assignment) TransmissionList(i, numSegments int) []int {
	if numSegments <= 0 {
		return nil
	}
	// Exactly sized: every full window contributes the whole list, the
	// partial last window the segments below the remainder.
	size := numSegments / a.Window * len(a.Segments[i])
	for _, seg := range a.Segments[i] {
		if seg < numSegments%a.Window {
			size++
		}
	}
	out := make([]int, 0, size)
	for base := 0; base < numSegments; base += a.Window {
		for _, seg := range a.Segments[i] {
			abs := base + seg
			if abs < numSegments {
				out = append(out, abs)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ArrivalSlots returns, for each absolute segment of a numSegments-long
// file, the time (in δt slots from transmission start) at which the segment
// is fully received. Supplier i transmits its list in ascending order
// back-to-back at rate R0/2^c_i, i.e. one segment every 2^c_i slots.
func (a *Assignment) ArrivalSlots(numSegments int) []int64 {
	arrivals := make([]int64, numSegments)
	for i, s := range a.Suppliers {
		period := int64(1) << uint(s.Class)
		for j, seg := range a.TransmissionList(i, numSegments) {
			arrivals[seg] = int64(j+1) * period
		}
	}
	return arrivals
}

// DelaySlots returns the buffering delay of this assignment in δt slots:
// the smallest D with arrival(s) <= D + s for every segment s. For OTS_p2p
// this equals len(Suppliers) (Theorem 1). The value is independent of the
// file length (the schedule's slack is periodic in the window), so it is
// computed over a single window.
func (a *Assignment) DelaySlots() int64 {
	var delay int64
	for i, s := range a.Suppliers {
		// Within one window supplier i's transmission list is Segments[i]
		// itself: its j-th segment arrives at (j+1)·2^c_i.
		period := int64(1) << uint(s.Class)
		for j, seg := range a.Segments[i] {
			if d := int64(j+1)*period - int64(seg); d > delay {
				delay = d
			}
		}
	}
	return delay
}

// OptimalDelaySlots returns the delay Theorem 1 guarantees for a session
// with n suppliers: n slots of δt.
func OptimalDelaySlots(n int) int64 { return int64(n) }
