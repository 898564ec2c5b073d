package scenario

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"p2pstream/internal/media"
)

// Validate reports the first structural problem of the spec. Run validates
// automatically; the CLI validates catalog entries up front. Each feature
// of the spec has its own validator, run in a fixed order. The host names
// the registry, the peers, the traffic endpoints and the joiners claim are
// collected on the way, so the links and the Expect clauses can only name
// hosts that exist.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: spec needs a name")
	}
	if s.DirectoryShards < 0 {
		return fmt.Errorf("scenario %s: DirectoryShards %d, want >= 0", s.Name, s.DirectoryShards)
	}
	if s.ChordReplication < 0 || s.ChordVirtualNodes < 0 {
		return fmt.Errorf("scenario %s: ChordReplication %d / ChordVirtualNodes %d, want >= 0",
			s.Name, s.ChordReplication, s.ChordVirtualNodes)
	}
	ids := map[string]bool{DirectoryHost: true}
	for i := 1; i < s.maxShards(); i++ {
		ids[ShardHost(i)] = true
	}
	for _, validate := range []func(map[string]bool) error{
		s.validateObjects, s.validateAutoscale, s.validatePeers, s.validateTraffic, s.validateChurn, s.validateLinks, s.validateExpect,
	} {
		if err := validate(ids); err != nil {
			return err
		}
	}
	return nil
}

// claim adds one peer's ID to the claimed host names, rejecting an
// unusable or taken ID, an invalid class and a negative priority.
func (s *Spec) claim(ids map[string]bool, p Peer, role string) error {
	switch {
	case p.ID == "" || p.ID == Wildcard:
		return fmt.Errorf("scenario %s: %s has unusable ID %q", s.Name, role, p.ID)
	case ids[p.ID]:
		return fmt.Errorf("scenario %s: duplicate host %q", s.Name, p.ID)
	case !p.Class.Valid(s.NumClasses):
		return fmt.Errorf("scenario %s: %s %s has invalid %v for K=%d", s.Name, role, p.ID, p.Class, s.NumClasses)
	case p.Priority < 0:
		return fmt.Errorf("scenario %s: %s %s has negative priority %d", s.Name, role, p.ID, p.Priority)
	}
	ids[p.ID] = true
	return nil
}

func (s *Spec) validatePeers(ids map[string]bool) error {
	if len(s.Seeds) == 0 {
		return fmt.Errorf("scenario %s: needs at least one seed", s.Name)
	}
	if len(s.Requesters) == 0 {
		return fmt.Errorf("scenario %s: needs at least one requester", s.Name)
	}
	for _, p := range s.Seeds {
		if err := s.claim(ids, p, "seed"); err != nil {
			return err
		}
	}
	for _, p := range s.Requesters {
		if err := s.claim(ids, p, "requester"); err != nil {
			return err
		}
	}
	return nil
}

// validateTraffic checks the cross-traffic flows. Traffic endpoints are
// dedicated hosts: flows may share them with each other, but not with
// peers or registry servers (a sink co-located with a node would blur
// whose bytes crossed the bottleneck).
func (s *Spec) validateTraffic(ids map[string]bool) error {
	var endpoints []string
	for _, tf := range s.Traffic {
		for _, id := range []string{tf.From, tf.To} {
			if id == "" || id == Wildcard {
				return fmt.Errorf("scenario %s: traffic flow has unusable endpoint %q", s.Name, id)
			}
			if ids[id] {
				return fmt.Errorf("scenario %s: traffic endpoint %q collides with a peer or registry host", s.Name, id)
			}
		}
		endpoints = append(endpoints, tf.From, tf.To)
		if tf.From == tf.To {
			return fmt.Errorf("scenario %s: traffic flow from %q to itself", s.Name, tf.From)
		}
		if tf.Chunk < 0 || tf.Rate < 0 || tf.Start < 0 || tf.Duration < 0 {
			return fmt.Errorf("scenario %s: traffic flow %s->%s has a negative tuning field", s.Name, tf.From, tf.To)
		}
	}
	for _, id := range endpoints {
		ids[id] = true
	}
	return nil
}

// validateChurn checks the churn schedule in two passes so slice order
// never matters: the schedule's semantics come from the At instants
// alone. The joins go first, in time order, since a fresh joiner claims
// its ID; then every Crash and Leave must name a host that can die that
// way.
func (s *Spec) validateChurn(ids map[string]bool) error {
	crashed := make(map[string]time.Duration)
	var joins []ChurnEvent
	for _, ev := range s.Churn {
		switch ev.Action {
		case Crash:
			crashed[ev.Node] = ev.At
		case Join:
			joins = append(joins, ev)
		}
	}
	sort.SliceStable(joins, func(i, j int) bool { return joins[i].At < joins[j].At })
	rejoined := make(map[string]bool)
	for _, ev := range joins {
		what := "shard"
		if s.shardIndex(ev.Node) < 0 {
			what = "peer"
		}
		if what == "peer" && !ids[ev.Node] {
			if err := s.claim(ids, Peer{ID: ev.Node, Class: ev.Class}, "joiner"); err != nil {
				return err
			}
			continue
		}
		// A known host joins only by coming back from a crash, strictly
		// after it, and once: a shard as a fresh, empty server on its old
		// address (the clients' lease re-registrations repopulate it; class
		// does not apply to servers), a peer as a new node under its old ID
		// with an empty store and a valid class. The decoy directory never
		// comes back.
		crashAt, wasCrashed := crashed[ev.Node]
		switch {
		case what == "peer" && ev.Node == DirectoryHost:
			return fmt.Errorf("scenario %s: join of the directory is not supported (the decoy dies hard, it does not rejoin)", s.Name)
		case !wasCrashed:
			return fmt.Errorf("scenario %s: join of %s %q that never crashed", s.Name, what, ev.Node)
		case crashAt >= ev.At:
			return fmt.Errorf("scenario %s: %s %q rejoins at %v, not after its crash at %v", s.Name, what, ev.Node, ev.At, crashAt)
		case rejoined[ev.Node]:
			return fmt.Errorf("scenario %s: %s %q rejoins twice", s.Name, what, ev.Node)
		case what == "peer" && !ev.Class.Valid(s.NumClasses):
			return fmt.Errorf("scenario %s: joiner %s has invalid %v for K=%d", s.Name, ev.Node, ev.Class, s.NumClasses)
		}
		rejoined[ev.Node] = true
	}
	for _, ev := range s.Churn {
		switch ev.Action {
		case Crash, Leave:
			if s.shardIndex(ev.Node) >= 0 {
				// Any shard of a sharded registry may crash mid-run — the
				// point of per-shard failure isolation. Like the single
				// directory, a shard dies hard; it does not leave.
				if ev.Action == Leave {
					return fmt.Errorf("scenario %s: only Crash of shard %q is supported (registry shards die hard, they do not leave)", s.Name, ev.Node)
				}
				continue
			}
			if ev.Node == DirectoryHost {
				// Killing the directory is legal exactly when it is a decoy:
				// chord discovery with a directory running for show.
				if ev.Action == Crash && s.Discovery == BackendChord && s.KeepDirectory {
					continue
				}
				if ev.Action == Leave {
					return fmt.Errorf("scenario %s: only Crash of the directory is supported (the decoy dies hard, it does not leave)", s.Name)
				}
				return fmt.Errorf("scenario %s: Crash of the directory requires chord discovery with KeepDirectory", s.Name)
			}
			if !ids[ev.Node] {
				return fmt.Errorf("scenario %s: %v of unknown peer %q", s.Name, ev.Action, ev.Node)
			}
		case Join: // validated above
		default:
			return fmt.Errorf("scenario %s: churn event with unknown action %v", s.Name, ev.Action)
		}
	}
	return nil
}

// validateLinks checks that the static link rules and the link schedule
// name declared hosts (an event naming no host changes the default link).
func (s *Spec) validateLinks(ids map[string]bool) error {
	checkLink := func(l Link, where string) error {
		if l.A == "" || l.A == Wildcard || !ids[l.A] {
			return fmt.Errorf("scenario %s: %s references unknown host %q", s.Name, where, l.A)
		}
		if l.B != Wildcard && !ids[l.B] {
			return fmt.Errorf("scenario %s: %s references unknown host %q", s.Name, where, l.B)
		}
		return nil
	}
	for _, l := range s.Links {
		if err := checkLink(l, "link rule"); err != nil {
			return err
		}
	}
	for _, ev := range s.Events {
		if ev.Link.A == "" && ev.Link.B == "" {
			continue // default-link event
		}
		if err := checkLink(ev.Link, "link event"); err != nil {
			return err
		}
	}
	return nil
}

// validateExpect checks the acceptance envelope: the peers it names exist
// (a FullQuality peer streams media, so it is no traffic endpoint), and
// FairShare is a max/min ratio.
func (s *Spec) validateExpect(ids map[string]bool) error {
	traffic := map[string]bool{}
	for _, tf := range s.Traffic {
		traffic[tf.From] = true
		traffic[tf.To] = true
	}
	for _, id := range s.Expect.MayFail {
		if !ids[id] {
			return fmt.Errorf("scenario %s: Expect.MayFail references unknown peer %q", s.Name, id)
		}
	}
	for _, id := range s.Expect.FullQuality {
		if !ids[id] || traffic[id] {
			return fmt.Errorf("scenario %s: Expect.FullQuality references unknown peer %q", s.Name, id)
		}
	}
	if fs := s.Expect.FairShare; fs != 0 && fs < 1 {
		return fmt.Errorf("scenario %s: Expect.FairShare %v, want >= 1 (a max/min throughput ratio)", s.Name, fs)
	}
	return nil
}

// validateObjects checks the media half of the spec: a well-formed
// catalog (media.CheckCatalog) and a workload that only references
// declared objects.
func (s *Spec) validateObjects(map[string]bool) error {
	if s.CacheBudget < 0 {
		return fmt.Errorf("scenario %s: CacheBudget %d, want >= 0", s.Name, s.CacheBudget)
	}
	if s.SessionSlots < 0 {
		return fmt.Errorf("scenario %s: SessionSlots %d, want >= 0", s.Name, s.SessionSlots)
	}
	if err := media.CheckCatalog(s.Objects, s.CacheBudget); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, p := range s.Seeds {
		for _, name := range p.Held {
			if s.objectFile(name) == nil {
				return fmt.Errorf("scenario %s: seed %s holds undeclared object %q", s.Name, p.ID, name)
			}
		}
	}
	for _, p := range s.Requesters {
		for _, name := range p.Objects {
			if s.objectFile(name) == nil {
				return fmt.Errorf("scenario %s: requester %s requests undeclared object %q", s.Name, p.ID, name)
			}
		}
	}
	return nil
}

// validateAutoscale checks the elastic-registry half of the spec: a
// directory-backed run with sane watermarks and bounds, and no churn
// aimed at shard hosts (the controller owns shard lifecycles).
func (s *Spec) validateAutoscale(map[string]bool) error {
	a := s.Autoscale
	if a == nil {
		return nil
	}
	if s.Discovery == BackendChord {
		return fmt.Errorf("scenario %s: Autoscale requires the directory backend", s.Name)
	}
	if a.Interval < 0 || a.Sustain < 0 || a.DrainGrace < 0 {
		return fmt.Errorf("scenario %s: Autoscale has a negative tuning field", s.Name)
	}
	if a.HighWater < 0 || a.LowWater < 0 {
		return fmt.Errorf("scenario %s: Autoscale watermarks %g/%g, want >= 0", s.Name, a.HighWater, a.LowWater)
	}
	if a.HighWater != 0 && a.HighWater <= a.LowWater {
		return fmt.Errorf("scenario %s: Autoscale HighWater %g must exceed LowWater %g", s.Name, a.HighWater, a.LowWater)
	}
	if a.MaxShards != 0 && a.MaxShards < s.shardCount() {
		return fmt.Errorf("scenario %s: Autoscale MaxShards %d below the initial %d shards", s.Name, a.MaxShards, s.shardCount())
	}
	for _, ev := range s.Churn {
		if shardHostIndex(ev.Node, s.maxShards()) >= 0 {
			return fmt.Errorf("scenario %s: churn of registry shard %q is not supported under Autoscale (the controller owns shard lifecycles)", s.Name, ev.Node)
		}
	}
	return nil
}
