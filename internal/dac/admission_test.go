package dac_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
	"p2pstream/internal/protocol"
)

// A requester's side of §4.2 — which grants it takes and where it leaves
// reminders on rejection — is implemented once, in protocol.Attempt. These
// tests pin that rule against the supplier decisions this package defines.

// answer is one candidate's probe response.
type answer struct {
	dec    dac.Decision
	favors bool
}

// sweep drives an Attempt over candidates of the given classes, each
// answering as given, and returns it finished with the candidates it
// probed, in order.
func sweep(classes []bandwidth.Class, answers []answer) (att *protocol.Attempt, probed []int) {
	att = protocol.NewAttempt(classes)
	for {
		idx, ok := att.Next()
		if !ok {
			return att, probed
		}
		probed = append(probed, idx)
		att.Record(idx, answers[idx].dec, answers[idx].favors)
	}
}

// same returns n copies of a.
func same(n int, a answer) []answer {
	as := make([]answer, n)
	for i := range as {
		as[i] = a
	}
	return as
}

func TestReminderTargetsPartialPrefix(t *testing.T) {
	// If the favoring busy candidates cannot reach R0, the accumulated
	// prefix is still reminded (documented substitution).
	busy := answer{dac.DeniedBusy, true}
	att, _ := sweep([]bandwidth.Class{3, 4}, same(2, busy))
	if att.Admitted() {
		t.Fatal("admitted with no grants")
	}
	if got, want := att.ReminderTargets(), []int{0, 1}; !slices.Equal(got, want) {
		t.Errorf("ReminderTargets = %v, want %v", got, want)
	}
	if att, _ := sweep(nil, nil); len(att.ReminderTargets()) != 0 {
		t.Errorf("ReminderTargets over no candidates = %v", att.ReminderTargets())
	}
}

func TestReminderTargetsHighClassFirst(t *testing.T) {
	busy := answer{dac.DeniedBusy, true}
	att, _ := sweep([]bandwidth.Class{4, 1, 1}, same(3, busy))
	// 1/2 + 1/2 = R0: the two class-1 candidates, probed first.
	if got, want := att.ReminderTargets(), []int{1, 2}; !slices.Equal(got, want) {
		t.Errorf("ReminderTargets = %v, want %v", got, want)
	}
}

// TestSelectSuppliersGreedyComplete: with class offers (binary fractions),
// the requester is admitted whenever ANY subset of the grants reaches
// exactly R0.
func TestSelectSuppliersGreedyComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(9)
		classes := make([]bandwidth.Class, n)
		answers := make([]answer, n)
		offers := make([]bandwidth.Fraction, 0, n)
		for i := range classes {
			classes[i] = bandwidth.Class(1 + rng.Intn(5))
			answers[i] = answer{dac.Granted, true}
			if rng.Intn(4) == 0 {
				answers[i].dec = dac.DeniedBusy
			}
			if answers[i].dec == dac.Granted {
				offers = append(offers, classes[i].Offer())
			}
		}
		att, _ := sweep(classes, answers)
		if exists := bandwidth.ExactSubsetExists(offers, bandwidth.R0); att.Admitted() != exists {
			t.Fatalf("trial %d: admitted=%v but exact subset exists=%v (classes %v, answers %+v)",
				trial, att.Admitted(), exists, classes, answers)
		}
	}
}

// TestChosenSuppliersSumExactly: whenever admitted, the chosen offers sum
// to exactly R0 (precondition of OTS_p2p).
func TestChosenSuppliersSumExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	admitted := 0
	for trial := 0; trial < 2000; trial++ {
		classes := make([]bandwidth.Class, 1+rng.Intn(12))
		for i := range classes {
			classes[i] = bandwidth.Class(1 + rng.Intn(5))
		}
		att, _ := sweep(classes, same(len(classes), answer{dac.Granted, true}))
		if !att.Admitted() {
			continue
		}
		admitted++
		var sum bandwidth.Fraction
		for _, i := range att.Chosen() {
			sum += classes[i].Offer()
		}
		if sum != bandwidth.R0 {
			t.Fatalf("trial %d: chosen sum %v != R0", trial, sum)
		}
	}
	if admitted == 0 {
		t.Fatal("no trial was admitted")
	}
}

// byClassThenPosition is the reference order: a sort keyed on (class,
// position) needs no stability to be stable.
func byClassThenPosition(idx []int, classes []bandwidth.Class) {
	sort.Slice(idx, func(a, b int) bool {
		if ca, cb := classes[idx[a]], classes[idx[b]]; ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
}

// TestOrderingMatchesStableSort: the requester probes high class first
// with ties in position order, and its chosen suppliers and reminder
// targets are greedy scans in that order over the grants and over the busy
// favoring candidates.
func TestOrderingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 2000; round++ {
		classes := make([]bandwidth.Class, rng.Intn(40))
		answers := make([]answer, len(classes))
		for i := range classes {
			classes[i] = bandwidth.Class(1 + rng.Intn(bandwidth.MaxClass))
			if rng.Intn(2) == 0 {
				classes[i] = 1 + bandwidth.Class(rng.Intn(5)) // plenty of ties
			}
			answers[i] = answer{dac.Decision(rng.Intn(3)), rng.Intn(3) > 0}
		}

		order := make([]int, len(classes))
		for i := range order {
			order[i] = i
		}
		byClassThenPosition(order, classes)
		// Denied on probability, nobody is chosen or reminded, so the
		// sweep probes every candidate.
		if _, probed := sweep(classes, same(len(classes), answer{dac.DeniedProbability, true})); !slices.Equal(probed, order) {
			t.Fatalf("classes %v: probed %v, stable sort gives %v", classes, probed, order)
		}

		// The reference greedy scan over a filter in reference order.
		scan := func(keep func(answer) bool) (picked []int, sum bandwidth.Fraction) {
			for _, i := range order {
				if !keep(answers[i]) {
					continue
				}
				offer := classes[i].Offer()
				if sum+offer > bandwidth.R0 {
					continue
				}
				sum += offer
				picked = append(picked, i)
				if sum == bandwidth.R0 {
					break
				}
			}
			return picked, sum
		}
		att, probed := sweep(classes, answers)
		if !slices.Equal(probed, order[:len(probed)]) {
			t.Fatalf("classes %v: probed %v, want a prefix of %v", classes, probed, order)
		}
		wantChosen, sum := scan(func(a answer) bool { return a.dec == dac.Granted })
		if att.Admitted() != (sum == bandwidth.R0) || att.Admitted() && !slices.Equal(att.Chosen(), wantChosen) {
			t.Fatalf("classes %v, answers %+v: admitted %v, chosen %v; reference %v (sum %v)",
				classes, answers, att.Admitted(), att.Chosen(), wantChosen, sum)
		}
		if att.Admitted() {
			continue
		}
		wantTargets, _ := scan(func(a answer) bool { return a.dec == dac.DeniedBusy && a.favors })
		if !slices.Equal(att.ReminderTargets(), wantTargets) {
			t.Fatalf("classes %v, answers %+v: reminder targets %v, reference %v",
				classes, answers, att.ReminderTargets(), wantTargets)
		}
	}
}
