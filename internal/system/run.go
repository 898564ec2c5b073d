package system

import (
	"fmt"
	"math/rand"
	"time"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
	"p2pstream/internal/lookup"
	"p2pstream/internal/metrics"
	"p2pstream/internal/protocol"
	"p2pstream/internal/sim"
)

// Result carries everything the paper's figures and tables report about one
// run. Per-class slices are indexed by class-1 (class c at index c-1).
type Result struct {
	Config Config

	// Capacity is the total system capacity sampled every SampleEvery
	// (Figures 4 and 8): floor of the aggregate supplier offer over R0.
	Capacity *metrics.Series
	// MaxCapacity is the capacity if every peer becomes a supplier.
	MaxCapacity int

	// AdmissionRate is the per-class accumulative admission rate in percent
	// (Figure 5): admitted peers over peers that made their first request.
	AdmissionRate []*metrics.Series
	// OverallAdmissionRate aggregates all classes (Figure 9).
	OverallAdmissionRate *metrics.Series
	// BufferingDelay is the per-class accumulative average buffering delay
	// in δt units (Figure 6): by Theorem 1, the number of suppliers serving
	// each admitted peer.
	BufferingDelay []*metrics.Series
	// LowestFavored is, per supplier class, the mean lowest favored class
	// over that class's suppliers, snapshotted every FavoredSampleEvery
	// (Figure 7).
	LowestFavored []*metrics.Series

	// Admitted and Arrived count peers per class at the horizon.
	Admitted, Arrived []int64
	// AvgRejections is the per-class mean number of rejections an admitted
	// peer suffered before admission (Table 1); NaN-free: classes with no
	// admissions report 0 and Admitted tells the caller.
	AvgRejections []float64
	// AvgDelaySlots is the per-class mean buffering delay in δt units at
	// the horizon.
	AvgDelaySlots []float64
	// AvgWait is the per-class mean waiting time implied by the backoff
	// schedule and the observed rejections (paper: waiting time is the
	// interval between the first request and admission).
	AvgWait []time.Duration

	// TotalProbes counts candidate probes (protocol overhead).
	TotalProbes int64
	// TotalReminders counts reminders left on busy suppliers.
	TotalReminders int64
	// TotalRequests counts streaming requests including retries.
	TotalRequests int64
	// TotalDown counts probes lost to transiently-down candidates
	// (non-zero only when Config.DownProb is set).
	TotalDown int64
	// Events is the number of simulation events processed.
	Events uint64
}

// peer is the simulator's one record per peer, seed or requester: what the
// paper's metrics and the peer's own events need, and no more. Its §4.1
// admission state is not here but in its slot of simulation.adm, which is
// what a probe reads; a supplier's lifecycle — sessions, the post-session
// update, idle elevation — is those dac.Supplier methods driven from the
// peer's events, with no lock (the simulation is single-threaded) and the
// idle timer as an engine event of its own. At 48 bytes the records of a
// full-scale run, laid out once in simulation.peers, stay in cache beside
// the admission slab and the event queue; TestPeerRecordSize pins that. The
// records are referred to by address from then on, so a peer is never
// copied.
type peer struct {
	sim     *simulation
	arrival time.Duration
	// idleSeq is the engine sequence number of the peer's live idle
	// elevation arm, 0 when none runs: an arm it no longer names was stopped
	// or superseded and pops as a no-op, as clock.Alarm's do.
	idleSeq uint64
	// chosenLo and chosenHi bound, in simulation.chosen, the IDs of the
	// suppliers of the peer's own session, from its admission to the
	// session's end.
	chosenLo, chosenHi int32
	rejections         int32
	id                 int32
	class              bandwidth.Class
}

// Fire implements sim.Handler: the peer is its own request event, first
// arrival and every retry, so scheduling one allocates nothing.
func (p *peer) Fire() { p.sim.handleRequest(p) }

// sessionEnd is the peer as the event that ends its session, kept off
// peer's method set: a peer is three events and Fire is taken.
type sessionEnd peer

// Fire implements sim.Handler.
func (e *sessionEnd) Fire() { p := (*peer)(e); p.sim.endSession(p) }

// idleTimeout is the peer as its supplier's idle elevation timer (Section
// 4.1(b)).
type idleTimeout peer

// Fire implements sim.Handler.
func (e *idleTimeout) Fire() {
	p := (*peer)(e)
	if p.idleSeq != p.sim.eng.FiringSeq() {
		return // a stopped or superseded arm
	}
	p.idleSeq = 0
	p.sim.onIdleTimeout(p)
}

type simulation struct {
	cfg Config
	eng sim.Engine
	rng *rand.Rand // protocol randomness (probes, sampling)

	peers []peer // seeds, then requesters, indexed by id; sized once, never moved
	// adm is every peer's §4.1 admission state, indexed by id like peers and
	// sized once: one word a peer, so the whole slab stays in cache.
	adm []dac.Supplier
	// chosen holds the supplier IDs of every admitted session, appended at
	// admission; a peer keeps its range.
	chosen   []int32
	src      candidateSource
	aggOffer bandwidth.Fraction

	// suppliers and anchorSum are Figure 7's census, per class: how many
	// peers supply and the sum of their lowest favored classes. They change
	// only where an anchor moves — a promotion, a session end, an idle
	// timeout — never per probe.
	suppliers, anchorSum [bandwidth.MaxClass + 1]int64

	arrived       []int64
	admitted      []int64
	delaySum      []float64
	rejectionsSum []int64
	waitSum       []time.Duration

	// Per-request scratch, reused across requests: the simulation is
	// single-threaded and a request is handled within one event.
	att        protocol.Attempt
	classes    []bandwidth.Class
	session    []core.Supplier
	assignment core.Assignment

	samplers []sampler // every metric sample of the run, scheduled up front
	res      *Result
}

// sampler is one scheduled metric sample at time t: the accumulative series
// of Figures 4–6 and 9, or Figure 7's census snapshot.
type sampler struct {
	s       *simulation
	t       time.Duration
	favored bool
}

// Fire implements sim.Handler.
func (e *sampler) Fire() {
	if e.favored {
		e.s.sampleFavored(e.t)
	} else {
		e.s.sampleAccumulative(e.t)
	}
}

// Run executes one complete simulation and returns its metrics.
func Run(cfg Config) (*Result, error) {
	s, err := newSimulation(cfg)
	if err != nil {
		return nil, err
	}
	s.eng.RunUntil(cfg.Horizon)
	s.finalize()
	return s.res, nil
}

// newSimulation lays out a simulation of cfg with its seeds promoted and
// every first request and metric sample scheduled, ready to step.
func newSimulation(cfg Config) (*simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := int(cfg.NumClasses())
	// Every table whose size follows from the configuration is laid out
	// once, the metric series included.
	samples := int(cfg.Horizon/cfg.SampleEvery) + 1
	favoredSamples := int(cfg.Horizon/cfg.FavoredSampleEvery) + 1
	series := func(n int, name string, args ...any) *metrics.Series {
		ser := &metrics.Series{Name: fmt.Sprintf(name, args...)}
		ser.Grow(n)
		return ser
	}
	s := &simulation{
		cfg:           cfg,
		rng:           sim.NewRNG(sim.ChildSeed(cfg.Seed, "protocol")),
		arrived:       make([]int64, k+1),
		admitted:      make([]int64, k+1),
		delaySum:      make([]float64, k+1),
		rejectionsSum: make([]int64, k+1),
		waitSum:       make([]time.Duration, k+1),
		res: &Result{
			Config:               cfg,
			Capacity:             series(samples, "capacity"),
			OverallAdmissionRate: series(samples, "overall-admission-%%"),
		},
	}
	// The queue starts at its largest — one event per peer (a seed's idle
	// timer, a requester's arrival) beside the sampling events — and each
	// peer keeps about one in flight from then on: a retry, a session end,
	// an idle timer.
	numPeers := cfg.NumSeeds + cfg.NumRequesters
	s.peers = make([]peer, numPeers)
	s.adm = make([]dac.Supplier, numPeers)
	s.chosen = make([]int32, 0, cfg.NumRequesters)
	s.samplers = make([]sampler, 0, samples+favoredSamples)
	s.eng.Grow(numPeers + samples + favoredSamples)
	switch cfg.Lookup {
	case LookupChord:
		s.src = newChordSource(s.eng.Now, cfg.ChordStabilizeEvery)
	default:
		s.src = newDirectorySource(numPeers)
	}
	for c := 1; c <= k; c++ {
		s.res.AdmissionRate = append(s.res.AdmissionRate, series(samples, "class%d-admission-%%", c))
		s.res.BufferingDelay = append(s.res.BufferingDelay, series(samples, "class%d-delay-slots", c))
		s.res.LowestFavored = append(s.res.LowestFavored, series(favoredSamples, "class%d-lowest-favored", c))
	}

	if err := s.populate(); err != nil {
		return nil, err
	}
	if err := s.scheduleProbes(); err != nil {
		return nil, err
	}
	return s, nil
}

// populate creates seed suppliers and requesting peers, and schedules every
// first request.
func (s *simulation) populate() error {
	classRng := sim.NewRNG(sim.ChildSeed(s.cfg.Seed, "classes"))
	arrivalRng := sim.NewRNG(sim.ChildSeed(s.cfg.Seed, "arrivals"))

	for i := 0; i < s.cfg.NumSeeds; i++ {
		p := &s.peers[i]
		p.sim, p.id, p.class = s, int32(i), s.cfg.SeedClass
		if err := s.becomeSupplier(p); err != nil {
			return err
		}
	}
	times, err := s.cfg.Pattern.Times(s.cfg.NumRequesters, s.cfg.ArrivalWindow, arrivalRng)
	if err != nil {
		return err
	}
	maxOffer := bandwidth.Fraction(s.cfg.NumSeeds) * s.cfg.SeedClass.Offer()
	for i := 0; i < s.cfg.NumRequesters; i++ {
		p := &s.peers[s.cfg.NumSeeds+i]
		p.sim, p.id, p.class = s, int32(s.cfg.NumSeeds+i), s.cfg.ClassDist.Pick(classRng.Float64())
		p.arrival = times[i]
		maxOffer += p.class.Offer()
		if err := s.eng.Schedule(p.arrival, p); err != nil {
			return err
		}
	}
	s.res.MaxCapacity = bandwidth.Sessions(maxOffer)
	return nil
}

// scheduleProbes installs the periodic metric sampling events.
func (s *simulation) scheduleProbes() error {
	for t := time.Duration(0); t <= s.cfg.Horizon; t += s.cfg.SampleEvery {
		s.samplers = append(s.samplers, sampler{s: s, t: t})
	}
	for t := time.Duration(0); t <= s.cfg.Horizon; t += s.cfg.FavoredSampleEvery {
		s.samplers = append(s.samplers, sampler{s: s, t: t, favored: true})
	}
	for i := range s.samplers {
		if err := s.eng.Schedule(s.samplers[i].t, &s.samplers[i]); err != nil {
			return err
		}
	}
	return nil
}

// becomeSupplier converts a peer into a supplying peer, arms its idle
// elevation timer, registers it with the directory and counts it in the
// census.
func (s *simulation) becomeSupplier(p *peer) error {
	a := &s.adm[p.id]
	if err := a.Init(p.class, s.cfg.NumClasses(), s.cfg.Policy); err != nil {
		return err
	}
	s.armIdle(p)
	if err := s.src.register(int(p.id), p.class); err != nil {
		return err
	}
	s.suppliers[p.class]++
	s.anchorSum[p.class] += int64(a.LowestFavored())
	s.aggOffer += p.class.Offer()
	return nil
}

// armIdle schedules p's next elevate-after-timeout step (Section 4.1(b)),
// superseding any arm still pending, when the dac rule says its idle timer
// runs.
func (s *simulation) armIdle(p *peer) {
	if !s.adm[p.id].IdleTimerRuns() {
		return
	}
	if err := s.eng.Schedule(s.eng.Now()+s.cfg.TOut, (*idleTimeout)(p)); err != nil {
		panic(fmt.Sprintf("system: arming idle timer: %v", err))
	}
	p.idleSeq = s.eng.LastSeq()
}

// onIdleTimeout applies the elevate-after-timeout rule to supplier p and
// re-arms its timer while the vector can still open.
func (s *simulation) onIdleTimeout(p *peer) {
	a := &s.adm[p.id]
	before := a.LowestFavored()
	if a.OnIdleTimeout() {
		s.anchorSum[p.class] += int64(a.LowestFavored() - before)
		s.armIdle(p)
	}
}

// handleRequest performs one admission attempt of peer p (Section 4.2),
// driving the shared protocol.Attempt sweep with probes served straight on
// the candidates' admission slots.
func (s *simulation) handleRequest(p *peer) {
	if p.rejections == 0 {
		s.arrived[p.class]++ // the first request: every retry follows a rejection
	}
	s.res.TotalRequests++

	candidates := s.src.sample(s.cfg.M, s.rng)
	s.classes = s.classes[:0]
	for _, c := range candidates {
		s.classes = append(s.classes, c.Class)
	}
	att := &s.att
	att.Reset(s.classes)
	for {
		idx, ok := att.Next()
		if !ok {
			break
		}
		if s.cfg.DownProb > 0 && s.rng.Float64() < s.cfg.DownProb {
			// Transiently unreachable: neither a grant nor a reminder
			// target (the paper's "down" case).
			s.res.TotalDown++
			att.Down(idx)
			continue
		}
		dec, favors := s.adm[candidates[idx].ID].Probe(p.class, s.rng.Float64())
		s.res.TotalProbes++
		att.Record(idx, dec, favors)
	}

	if !att.Admitted() {
		s.reject(p, att, candidates)
		return
	}
	p.chosenLo = int32(len(s.chosen))
	for _, idx := range att.Chosen() {
		s.chosen = append(s.chosen, int32(candidates[idx].ID))
	}
	p.chosenHi = int32(len(s.chosen))
	s.admit(p)
}

// chosenBy returns the IDs of the suppliers of p's session.
func (s *simulation) chosenBy(p *peer) []int32 { return s.chosen[p.chosenLo:p.chosenHi] }

// admit triggers the suppliers p chose and starts the streaming session.
func (s *simulation) admit(p *peer) {
	chosen := s.chosenBy(p)
	if s.cfg.ValidateAssignments {
		s.session = s.session[:0]
		for _, id := range chosen {
			s.session = append(s.session, core.Supplier{Class: s.peers[id].class})
		}
		if err := protocol.AssignSessionInto(&s.assignment, s.session); err != nil {
			panic(fmt.Sprintf("system: OTS_p2p on admission, suppliers %v: %v", chosen, err))
		}
	}
	for _, id := range chosen {
		if err := s.adm[id].StartSession(); err != nil {
			panic(fmt.Sprintf("system: triggering supplier %d: %v", id, err))
		}
		s.peers[id].idleSeq = 0 // a session suspends the idle timer
	}
	waited := s.eng.Now() - p.arrival
	if s.cfg.ValidateAssignments {
		// The waiting time must equal the exact sum of the backoffs served
		// (retries fire exactly when their backoff expires).
		want, err := s.cfg.Backoff.TotalWait(int(p.rejections))
		if err != nil {
			panic(fmt.Sprintf("system: backoff total: %v", err))
		}
		if waited != want {
			panic(fmt.Sprintf("system: peer %d waited %v, backoff schedule implies %v (%d rejections)",
				p.id, waited, want, p.rejections))
		}
	}
	s.admitted[p.class]++
	s.delaySum[p.class] += float64(len(chosen))
	s.rejectionsSum[p.class] += int64(p.rejections)
	s.waitSum[p.class] += waited

	if err := s.eng.Schedule(s.eng.Now()+s.cfg.SessionDuration, (*sessionEnd)(p)); err != nil {
		panic(fmt.Sprintf("system: scheduling session end: %v", err))
	}
}

// endSession releases p's suppliers — each applies the post-session vector
// update and re-arms its idle timer — and turns the requester into a
// supplying peer.
func (s *simulation) endSession(p *peer) {
	for _, id := range s.chosenBy(p) {
		a := &s.adm[id]
		before := a.LowestFavored()
		if err := a.EndSession(); err != nil {
			panic(fmt.Sprintf("system: releasing supplier %d: %v", id, err))
		}
		s.anchorSum[a.Class()] += int64(a.LowestFavored() - before)
		s.armIdle(&s.peers[id])
	}
	if err := s.becomeSupplier(p); err != nil {
		panic(fmt.Sprintf("system: promoting peer %d: %v", p.id, err))
	}
}

// reject leaves reminders on the busy favoring candidates the shared sweep
// selected and schedules the retry after the exponential backoff.
func (s *simulation) reject(p *peer, att *protocol.Attempt, candidates []lookup.Entry[int]) {
	p.rejections++
	for _, idx := range att.ReminderTargets() {
		if s.adm[candidates[idx].ID].LeaveReminder(p.class) {
			s.res.TotalReminders++
		}
	}
	wait, err := s.cfg.Backoff.After(int(p.rejections))
	if err != nil {
		panic(fmt.Sprintf("system: backoff: %v", err))
	}
	if s.eng.Now()+wait > s.cfg.Horizon {
		return // retry would fall beyond the simulated period
	}
	if err := s.eng.Schedule(s.eng.Now()+wait, p); err != nil {
		panic(fmt.Sprintf("system: scheduling retry: %v", err))
	}
}

// sampleAccumulative records capacity, per-class admission rate, overall
// admission rate and per-class average buffering delay at time t.
func (s *simulation) sampleAccumulative(t time.Duration) {
	s.res.Capacity.Add(t, float64(bandwidth.Sessions(s.aggOffer)))
	var arrivedAll, admittedAll int64
	k := int(s.cfg.NumClasses())
	for c := 1; c <= k; c++ {
		arrivedAll += s.arrived[c]
		admittedAll += s.admitted[c]
		if s.arrived[c] == 0 {
			s.res.AdmissionRate[c-1].AddMissing(t)
		} else {
			s.res.AdmissionRate[c-1].Add(t, 100*float64(s.admitted[c])/float64(s.arrived[c]))
		}
		if s.admitted[c] == 0 {
			s.res.BufferingDelay[c-1].AddMissing(t)
		} else {
			s.res.BufferingDelay[c-1].Add(t, s.delaySum[c]/float64(s.admitted[c]))
		}
	}
	if arrivedAll == 0 {
		s.res.OverallAdmissionRate.AddMissing(t)
	} else {
		s.res.OverallAdmissionRate.Add(t, 100*float64(admittedAll)/float64(arrivedAll))
	}
}

// sampleFavored records, per supplier class, the mean lowest favored class
// across that class's current suppliers (Figure 7), read off the running
// census.
func (s *simulation) sampleFavored(t time.Duration) {
	k := int(s.cfg.NumClasses())
	for c := 1; c <= k; c++ {
		if s.suppliers[c] == 0 {
			s.res.LowestFavored[c-1].AddMissing(t)
			continue
		}
		s.res.LowestFavored[c-1].Add(t, float64(s.anchorSum[c])/float64(s.suppliers[c]))
	}
}

// finalize fills the end-of-run aggregates.
func (s *simulation) finalize() {
	k := int(s.cfg.NumClasses())
	s.res.Arrived = append([]int64(nil), s.arrived[1:]...)
	s.res.Admitted = append([]int64(nil), s.admitted[1:]...)
	s.res.AvgRejections = make([]float64, k)
	s.res.AvgDelaySlots = make([]float64, k)
	s.res.AvgWait = make([]time.Duration, k)
	for c := 1; c <= k; c++ {
		if s.admitted[c] == 0 {
			continue
		}
		n := float64(s.admitted[c])
		s.res.AvgRejections[c-1] = float64(s.rejectionsSum[c]) / n
		s.res.AvgDelaySlots[c-1] = s.delaySum[c] / n
		s.res.AvgWait[c-1] = time.Duration(float64(s.waitSum[c]) / n)
	}
	s.res.Events = s.eng.Processed()
}
