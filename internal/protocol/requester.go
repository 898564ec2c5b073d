// Package protocol is the transport- and clock-agnostic core of the
// paper's two mechanisms: the DAC_p2p admission protocol (Section 4) and
// the OTS_p2p media data assignment (Section 3), expressed as passive
// session state machines. The discrete-event simulator
// (internal/system) and the live overlay node (internal/node) are thin
// drivers over this package: the simulator feeds it in-memory probe
// results under virtual time, the node feeds it wire messages — the
// admission decisions, candidate ordering, reminder targeting and
// assignment checks are implemented exactly once.
//
// The supplier lifecycle rules — probe, reminder, session start, the
// post-session vector update, idle elevation and when the idle timer runs —
// are dac.Supplier methods. Supplier is the node's locked driver of them,
// with its timer on a clock.Alarm; the single-threaded simulator drives the
// same methods on its own compact per-peer record, with the timer as an
// engine event.
package protocol

import (
	"fmt"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
)

// Attempt is one admission attempt of a requesting peer (Section 4.2): it
// walks the looked-up candidates high class first, accumulates granted
// offers up to exactly R0 — skipping grants that would overshoot — and
// stops as soon as permissions reach R0, or as soon as the candidates not
// yet probed cannot reach it. The driver owns all I/O: it asks
// Next which candidate to contact, performs the probe however it likes
// (wire message, in-memory state machine call), and reports the result
// with Record or Down.
//
// An Attempt is reusable: Reset starts the next sweep in the buffers of the
// last one, so a driver that keeps one Attempt allocates nothing per
// request.
type Attempt struct {
	classes []bandwidth.Class
	order   []int // probe order: high class first, stable
	pos     int

	sum      bandwidth.Fraction
	rest     bandwidth.Fraction // aggregate offer of the not-yet-probed tail
	remSum   bandwidth.Fraction // aggregate offer of targets, at most R0
	chosen   []int
	targets  []int // busy candidates favoring the requester, up to R0
	admitted bool
}

// NewAttempt starts an admission attempt over candidates with the given
// bandwidth classes (indices into this slice identify candidates in every
// other method).
func NewAttempt(classes []bandwidth.Class) *Attempt {
	a := new(Attempt)
	a.Reset(classes)
	return a
}

// Reset starts a new admission attempt over the given candidate classes,
// which the Attempt reads until the next Reset. Slices returned by Chosen
// and ReminderTargets before the call are overwritten.
func (a *Attempt) Reset(classes []bandwidth.Class) {
	if n := len(classes); cap(a.order) < n {
		// One backing array for the three index lists, each bounded by n.
		idx := make([]int, 3*n)
		a.order, a.chosen, a.targets = idx[:0:n], idx[n:n:2*n], idx[2*n:2*n:3*n]
	}
	a.classes = classes
	a.order = probeOrder(a.order, classes)
	a.pos = 0
	a.sum, a.rest, a.remSum = 0, 0, 0
	for _, c := range classes {
		a.rest += c.Offer()
	}
	a.chosen, a.targets = a.chosen[:0], a.targets[:0]
	a.admitted = false
}

// Next returns the index of the next candidate to probe. ok is false when
// the sweep is over: permissions reached exactly R0 (Admitted), every
// candidate has been contacted, or the un-probed tail no longer matters —
// it cannot lift the aggregate to R0 (the attempt is doomed to rejection)
// and the reminder set has already accumulated busy favoring candidates
// worth exactly R0 (Section 4.2's target), so further probes could change
// neither the admission nor where reminders land. In a crowd where most
// candidates answer busy, this cuts the doomed tail of every sweep.
func (a *Attempt) Next() (idx int, ok bool) {
	if a.admitted || a.pos >= len(a.order) {
		return 0, false
	}
	if a.Doomed() && a.remSum == bandwidth.R0 {
		return 0, false
	}
	return a.order[a.pos], true
}

// Doomed reports whether admission has become unreachable: the permissions
// gathered plus every offer not yet probed fall short of R0. A doomed sweep
// goes on only to place reminders, so a driver that holds anything for the
// chosen suppliers (the node holds their connections) lets go of it here.
func (a *Attempt) Doomed() bool {
	return !a.admitted && a.sum+a.rest < bandwidth.R0
}

// consume retires the candidate at the sweep position from the un-probed
// tail.
func (a *Attempt) consume() {
	a.rest -= a.classes[a.order[a.pos]].Offer()
	a.pos++
}

// Down records that the candidate returned by Next was unreachable — the
// paper's transiently "down" case: it yields neither a permission nor a
// reminder target.
func (a *Attempt) Down(idx int) { a.consume() }

// Record feeds the probe response of the candidate returned by Next. Probes
// arrive high class first, so one greedy pass per set is the whole of
// Section 4.2's rule: a grant, or a busy candidate favoring the requester,
// is kept unless its offer would push that set's aggregate beyond R0. The
// attempt is admitted the moment the grants hit R0 exactly; once the
// reminder set does, it is final whatever the rest of the sweep answers.
func (a *Attempt) Record(idx int, decision dac.Decision, favorsUs bool) {
	a.consume()
	offer := a.classes[idx].Offer()
	switch {
	case decision == dac.DeniedBusy && favorsUs && a.remSum+offer <= bandwidth.R0:
		a.remSum += offer
		a.targets = append(a.targets, idx)
	case decision == dac.Granted && a.sum+offer <= bandwidth.R0:
		a.sum += offer
		a.chosen = append(a.chosen, idx)
		a.admitted = a.sum == bandwidth.R0
	}
}

// Admitted reports whether the accumulated permissions reached exactly R0.
func (a *Attempt) Admitted() bool { return a.admitted }

// Chosen returns the candidate indices to trigger as session suppliers, in
// probe order (high class first). Valid only when Admitted.
func (a *Attempt) Chosen() []int { return a.chosen }

// ReminderTargets returns the candidate indices on which the rejected
// requester leaves reminders (Section 4.2): busy candidates that favor the
// requester's class, high class first, accumulated up to R0 with the same
// overshoot-skipping rule as the grants. If R0 is unreachable the
// accumulated prefix is still reminded (a substitution: the paper requires
// the subset's aggregate to equal R0 but does not say what to do when the
// busy favoring candidates cannot reach it).
func (a *Attempt) ReminderTargets() []int { return a.targets }

// probeOrder returns, in order's backing array, the candidate indices
// sorted high class first (descending offer), ties broken by position — the
// order in which a requesting peer contacts its candidates (Section 4.2).
func probeOrder(order []int, classes []bandwidth.Class) []int {
	order = order[:0]
	for i, c := range classes {
		// Insertion sort on the class, at most M candidates: an index moves
		// only past strictly lower classes, so equal classes keep their
		// positions.
		j := len(order)
		order = append(order, i)
		for ; j > 0 && classes[order[j-1]] > c; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	return order
}

// AssignSession computes the OTS_p2p assignment for a session's chosen
// suppliers and checks the Theorem 1 bound (delay = n·δt) before anything
// is triggered — the shared admission-to-streaming handoff of both
// runtimes.
func AssignSession(suppliers []core.Supplier) (*core.Assignment, error) {
	a := new(core.Assignment)
	if err := AssignSessionInto(a, suppliers); err != nil {
		return nil, err
	}
	return a, nil
}

// AssignSessionInto is AssignSession recomputing a in place (see
// core.Assignment.Assign): a driver that only needs the check keeps one
// assignment for every admission. After a Theorem 1 violation a holds the
// offending assignment.
func AssignSessionInto(a *core.Assignment, suppliers []core.Supplier) error {
	if err := a.Assign(suppliers); err != nil {
		return fmt.Errorf("protocol: OTS_p2p: %w", err)
	}
	if got, want := a.DelaySlots(), core.OptimalDelaySlots(len(suppliers)); got != want {
		return fmt.Errorf("protocol: Theorem 1 violated: delay %d slots, want %d", got, want)
	}
	return nil
}
