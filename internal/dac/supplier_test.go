package dac

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"p2pstream/internal/bandwidth"
)

func mustSupplier(t *testing.T, own, k bandwidth.Class, p Policy) *Supplier {
	t.Helper()
	s, err := NewSupplier(own, k, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSupplier(t *testing.T) {
	s := mustSupplier(t, 2, 4, DAC)
	if s.Class() != 2 {
		t.Errorf("Class = %d", s.Class())
	}
	if s.Offer() != bandwidth.R0/4 {
		t.Errorf("Offer = %v", s.Offer())
	}
	if s.Busy() {
		t.Error("new supplier should be idle")
	}
	if got := s.Vector(); !reflect.DeepEqual(got, Vector{1, 1, 0.5, 0.25}) {
		t.Errorf("Vector = %v", got)
	}
	if got := s.LowestFavored(); got != 2 {
		t.Errorf("LowestFavored = %d", got)
	}
}

// TestSupplierFitsOneWord pins the admission state at one machine word.
// The simulator lays every peer's out in one dense slab, 8 B a peer, which
// is what keeps a paper-scale run's slab (about 400 KB) inside L2.
func TestSupplierFitsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Supplier{}); got > 8 {
		t.Errorf("dac.Supplier is %d bytes, want at most 8", got)
	}
}

// TestProbeReportsFavors checks Probe's favor bit against Favors on
// suppliers of every class under both policies, idle and busy, for every
// requester class and two out of range.
func TestProbeReportsFavors(t *testing.T) {
	for _, p := range []Policy{DAC, NDAC} {
		for own := bandwidth.Class(1); own <= 4; own++ {
			for _, busy := range []bool{false, true} {
				s := mustSupplier(t, own, 4, p)
				if busy {
					_ = s.StartSession()
				}
				for req := bandwidth.Class(0); req <= 5; req++ {
					want := s.Favors(req)
					if _, favors := s.Probe(req, 0.5); favors != want {
						t.Errorf("%v class %d busy=%v: Probe(%d) favors = %v, Favors says %v", p, own, busy, req, favors, want)
					}
				}
			}
		}
	}
}

func TestNewSupplierNDACStartsOpen(t *testing.T) {
	s := mustSupplier(t, 3, 4, NDAC)
	if !s.Vector().AllOpen() {
		t.Error("NDAC supplier should start all-open")
	}
}

func TestNewSupplierErrors(t *testing.T) {
	if _, err := NewSupplier(0, 4, DAC); err == nil {
		t.Error("class 0 should fail")
	}
	if _, err := NewSupplier(5, 4, DAC); err == nil {
		t.Error("class above K should fail")
	}
	if _, err := NewSupplier(1, 4, Policy(99)); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestHandleProbeIdle(t *testing.T) {
	s := mustSupplier(t, 2, 4, DAC) // vector [1, 1, 0.5, 0.25]
	tests := []struct {
		req  bandwidth.Class
		u    float64
		want Decision
	}{
		{1, 0.999, Granted}, // probability 1.0: any u grants
		{2, 0.0, Granted},
		{3, 0.49, Granted},           // u < 0.5
		{3, 0.5, DeniedProbability},  // u >= 0.5
		{4, 0.24, Granted},           // u < 0.25
		{4, 0.25, DeniedProbability}, // u >= 0.25
		{0, 0.0, DeniedProbability},  // invalid class
		{9, 0.0, DeniedProbability},
	}
	for _, tt := range tests {
		if got := s.HandleProbe(tt.req, tt.u); got != tt.want {
			t.Errorf("HandleProbe(class %d, u=%g) = %v, want %v", tt.req, tt.u, got, tt.want)
		}
		if s.Busy() {
			t.Fatal("HandleProbe must not mark the supplier busy (grants are permissions)")
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := mustSupplier(t, 2, 4, DAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	if !s.Busy() {
		t.Fatal("should be busy")
	}
	if err := s.StartSession(); err == nil {
		t.Error("double StartSession should fail (at most one session per peer)")
	}
	if got := s.HandleProbe(3, 0.0); got != DeniedBusy {
		t.Errorf("probe while busy = %v, want DeniedBusy", got)
	}
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	if s.Busy() {
		t.Error("should be idle after EndSession")
	}
	if err := s.EndSession(); err == nil {
		t.Error("EndSession while idle should fail")
	}
}

func TestEndSessionElevatesWithoutFavoredRequest(t *testing.T) {
	// Section 4.1(c) first bullet: no favored-class request during the
	// session -> elevate.
	s := mustSupplier(t, 2, 4, DAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	// A class-3 probe arrives; class 3 is NOT favored by a class-2 supplier.
	s.HandleProbe(3, 0.0)
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	want := Vector{1, 1, 1, 0.5} // elevated once
	if got := s.Vector(); !reflect.DeepEqual(got, want) {
		t.Errorf("vector after un-requested session = %v, want %v", got, want)
	}
}

func TestEndSessionUnchangedWithFavoredRequestNoReminder(t *testing.T) {
	// Middle case: a favored-class request arrived but left no reminder ->
	// vector unchanged.
	s := mustSupplier(t, 2, 4, DAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	s.HandleProbe(1, 0.0) // class 1 is favored
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	want := Vector{1, 1, 0.5, 0.25}
	if got := s.Vector(); !reflect.DeepEqual(got, want) {
		t.Errorf("vector = %v, want unchanged %v", got, want)
	}
}

func TestEndSessionTightensOnReminder(t *testing.T) {
	// Section 4.1(c) second bullet: reminders left -> tighten anchored at
	// the highest reminder class.
	s := mustSupplier(t, 4, 4, DAC) // starts [1, 0.5, 0.25, 0.125]... own class 4
	// Open it up first via elevations.
	for s.OnIdleTimeout() {
	}
	if !s.Vector().AllOpen() {
		t.Fatal("setup: vector should be open")
	}
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	s.HandleProbe(2, 0.0)
	if !s.LeaveReminder(2) {
		t.Fatal("reminder from favored class 2 should be kept")
	}
	s.HandleProbe(3, 0.0)
	if !s.LeaveReminder(3) {
		t.Fatal("reminder from favored class 3 should be kept")
	}
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	// Highest reminder class is 2: [1, 1, 0.5, 0.25].
	want := Vector{1, 1, 0.5, 0.25}
	if got := s.Vector(); !reflect.DeepEqual(got, want) {
		t.Errorf("vector after reminders = %v, want %v", got, want)
	}
}

func TestLeaveReminderConditions(t *testing.T) {
	s := mustSupplier(t, 2, 4, DAC)
	if s.LeaveReminder(1) {
		t.Error("reminder on idle supplier must be refused")
	}
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	if s.LeaveReminder(3) {
		t.Error("reminder from non-favored class 3 must be refused")
	}
	if !s.LeaveReminder(1) {
		t.Error("reminder from favored class 1 must be kept")
	}
}

func TestLeaveReminderNDACIgnored(t *testing.T) {
	s := mustSupplier(t, 2, 4, NDAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	if s.LeaveReminder(1) {
		t.Error("NDAC supplier must ignore reminders")
	}
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	if !s.Vector().AllOpen() {
		t.Error("NDAC vector must stay all-open")
	}
}

func TestOnIdleTimeout(t *testing.T) {
	s := mustSupplier(t, 1, 4, DAC) // [1, 0.5, 0.25, 0.125]
	changes := 0
	for s.OnIdleTimeout() {
		changes++
		if changes > 10 {
			t.Fatal("OnIdleTimeout never converged")
		}
	}
	if changes != 3 {
		t.Errorf("changes = %d, want 3 (0.125 needs three doublings)", changes)
	}
	if !s.Vector().AllOpen() {
		t.Error("vector should be all-open after timeouts")
	}
}

func TestOnIdleTimeoutWhileBusyIgnored(t *testing.T) {
	s := mustSupplier(t, 1, 4, DAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	if s.OnIdleTimeout() {
		t.Error("idle timeout while busy must be a no-op")
	}
	if got := s.Vector(); !reflect.DeepEqual(got, Vector{1, 0.5, 0.25, 0.125}) {
		t.Errorf("vector changed while busy: %v", got)
	}
}

func TestOnIdleTimeoutNDACNoOp(t *testing.T) {
	s := mustSupplier(t, 1, 4, NDAC)
	if s.OnIdleTimeout() {
		t.Error("NDAC idle timeout must be a no-op")
	}
}

func TestBusyProbeRecordsFavoredOnlyWhenFavored(t *testing.T) {
	// A class-2 supplier favoring {1,2}: while busy, a class-4 probe alone
	// must lead to elevation at session end (no favored request), while a
	// class-1 probe must suppress it.
	s := mustSupplier(t, 2, 4, DAC)
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	s.HandleProbe(4, 0.0)
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	if got := s.Vector(); !reflect.DeepEqual(got, Vector{1, 1, 1, 0.5}) {
		t.Errorf("vector = %v, want elevated", got)
	}

	s2 := mustSupplier(t, 2, 4, DAC)
	if err := s2.StartSession(); err != nil {
		t.Fatal(err)
	}
	s2.HandleProbe(1, 0.0)
	s2.HandleProbe(4, 0.0)
	if err := s2.EndSession(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Vector(); !reflect.DeepEqual(got, Vector{1, 1, 0.5, 0.25}) {
		t.Errorf("vector = %v, want unchanged", got)
	}
}

func TestReminderStateResetBetweenSessions(t *testing.T) {
	s := mustSupplier(t, 1, 4, DAC)
	// Session 1: reminder from class 1.
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	s.HandleProbe(1, 0.0)
	s.LeaveReminder(1)
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	vecAfter1 := s.Vector()
	// Session 2: nothing happens; the old reminder must not tighten again —
	// instead the no-favored-request rule elevates.
	if err := s.StartSession(); err != nil {
		t.Fatal(err)
	}
	if err := s.EndSession(); err != nil {
		t.Fatal(err)
	}
	vecAfter2 := s.Vector()
	if reflect.DeepEqual(vecAfter1, vecAfter2) {
		t.Error("second quiet session should have elevated the vector")
	}
	for j := range vecAfter2 {
		if vecAfter2[j] < vecAfter1[j] {
			t.Errorf("class %d probability decreased across a quiet session", j+1)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if DAC.String() != "DAC_p2p" || NDAC.String() != "NDAC_p2p" {
		t.Error("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still print")
	}
	for _, d := range []Decision{Granted, DeniedBusy, DeniedProbability, Decision(9)} {
		if d.String() == "" {
			t.Errorf("Decision(%d).String empty", int(d))
		}
	}
}

// BenchmarkAdmissionProbe measures the supplier-side probe path.
func BenchmarkAdmissionProbe(b *testing.B) {
	sup, err := NewSupplier(2, 4, DAC)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sup.HandleProbe(bandwidth.Class(1+i%4), rng.Float64())
	}
}
