// Package observe is the overlay's unified observability surface: one
// Observer interface receiving typed Events from every component — the
// live node, the directory server, the sharded directory client and the
// chord ring peer — in place of the per-component hook fields
// (OnWriteError funcs) and ad-hoc counter tuples that grew by accretion.
//
// Observers are optional everywhere: a nil Observer costs one branch.
// Events fire on hot paths (reply writes, lookups), so implementations
// must be fast and must not block; anything slow belongs behind a channel
// the observer owns. Tally is the observer that counts: whoever wants run
// totals (the scenario harness does) installs one and reads its Snapshot.
package observe

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Type discriminates events.
type Type int

const (
	// WriteError: a reply write failed mid-exchange — the remote hung up
	// while a response was in flight, which the request/response flow
	// itself cannot surface. Wire carries the message kind, Err the cause.
	WriteError Type = iota + 1
	// LookupDone: a discovery candidate lookup (or chord key lookup)
	// completed. Hops carries the routing hops expended (0 for directory
	// round trips), Latency the elapsed time, Err the failure if any.
	LookupDone
	// ShardLookup: one registry shard's leg of a sharded-directory fan-out.
	// Shard carries the shard index, Latency the leg's round-trip time,
	// Err the per-shard failure (a dead shard; the fan-out still answers).
	ShardLookup
	// SessionServed: the supplier side completed streaming one session.
	SessionServed
	// ProbeServed: the supplier side answered one admission probe.
	ProbeServed
	// BitrateDowngrade: a supplying session's bandwidth estimate sustained
	// below its committed class offer and the session stepped one bitrate
	// class down the ladder. Quality carries the class it moved to.
	BitrateDowngrade
	// ObjectEvicted: a node's bounded library evicted one media object to
	// make room for another. Object carries the evicted object's name.
	ObjectEvicted
	// SupplierWithdrawn: a node withdrew its supplier registration for one
	// object — the graceful tail of an eviction (in-flight sessions of the
	// object drained first; the library never evicts a pinned object).
	// Object carries the withdrawn object's name.
	SupplierWithdrawn
	// ReplicaAnswered: a chord candidate lookup was answered by a replica
	// after the key's owner proved unreachable — the churn window the
	// successor-list replication exists to close. Hops carries the routing
	// hops of the resolving walk.
	ReplicaAnswered
	// LookupMiss: a requesting node's candidate discovery returned no
	// usable supplier (the ErrNoSuppliers path) — the defect signature of
	// an un-replicated ring during owner churn.
	LookupMiss
	// EpochFlip: the resharding controller flipped the directory
	// deployment to a new epoch (a shard was added or drained). Epoch
	// carries the new epoch number, Count the shard count it is valid for.
	EpochFlip
	// ShardAdded: the resharding controller spawned a new registry shard
	// under sustained load. Object carries the shard's stable name, Shard
	// its index in the new shard set, Epoch the epoch announcing it.
	ShardAdded
	// ShardDrained: the resharding controller drained the coldest registry
	// shard under sustained underload. Object carries the drained shard's
	// name, Shard its index in the old shard set, Epoch the epoch that
	// excludes it.
	ShardDrained
	// ReshardMove: a sharded client finished migrating its registrations
	// after an epoch flip — one batched re-registration round to the new
	// owners. Epoch carries the epoch converged to, Count the number of
	// registrations that changed owner, Latency the time from receiving
	// the epoch push to the last batch landing (the flip convergence).
	ReshardMove
	// TriggerDial: a requester had to dial a chosen supplier to trigger
	// it, because it held no probe connection to it or the held one was
	// dead. A grant keeps the line, so on a fault-free overlay this never
	// fires; a regression to one connection per trigger fires it once per
	// supplier of every session.
	TriggerDial
	// numTypes bounds the declared types; it sizes the name table and the
	// Tally. New types go above it, with a name below.
	numTypes
)

// typeNames is the one name table: String reads it, and a declared Type
// without an entry fails TestTypeStrings.
var typeNames = [numTypes]string{
	WriteError:        "write-error",
	LookupDone:        "lookup-done",
	ShardLookup:       "shard-lookup",
	SessionServed:     "session-served",
	ProbeServed:       "probe-served",
	BitrateDowngrade:  "bitrate-downgrade",
	ObjectEvicted:     "object-evicted",
	SupplierWithdrawn: "supplier-withdrawn",
	ReplicaAnswered:   "replica-answered",
	LookupMiss:        "lookup-miss",
	EpochFlip:         "epoch-flip",
	ShardAdded:        "shard-added",
	ShardDrained:      "shard-drained",
	ReshardMove:       "reshard-move",
	TriggerDial:       "trigger-dial",
}

func (t Type) String() string {
	if t > 0 && t < numTypes {
		return typeNames[t]
	}
	return "unknown"
}

// Event is one observable occurrence. Component identifies the emitter
// ("node/r1", "directory", "sharded-directory", "chord/s2"); the remaining
// fields apply per Type (zero otherwise).
type Event struct {
	Component string
	Type      Type
	// Wire is the transport message kind of a failed reply write.
	Wire string
	// Shard is the registry shard index of a ShardLookup leg.
	Shard int
	// Hops counts the routing hops of a completed lookup.
	Hops int
	// Quality is the bitrate class a BitrateDowngrade stepped to.
	Quality int
	// Object is the media object of an ObjectEvicted or SupplierWithdrawn
	// event, or the shard name of a ShardAdded or ShardDrained event.
	Object string
	// Epoch is the resharding epoch of an EpochFlip, ShardAdded,
	// ShardDrained or ReshardMove event.
	Epoch int64
	// Count is the shard count of an EpochFlip or the moved-registration
	// count of a ReshardMove.
	Count int
	// Latency is the elapsed time of a lookup or fan-out leg.
	Latency time.Duration
	// Err is the failure, if any.
	Err error
}

// Observer receives events. Implementations must be safe for concurrent
// use and must not block.
type Observer interface {
	Observe(Event)
}

// Func adapts a function to the Observer interface.
type Func func(Event)

// Observe calls f.
func (f Func) Observe(ev Event) { f(ev) }

// Emit delivers ev to o when o is non-nil — the nil-safe emission idiom
// every component uses.
func Emit(o Observer, ev Event) {
	if o != nil {
		o.Observe(ev)
	}
}

// Multi fans every event out to each non-nil observer, in order.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi(kept)
}

type multi []Observer

func (m multi) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Tally is the counting Observer: per event Type it keeps how many events
// arrived, how many carried an Err, the sum of their Count, and the sum and
// maximum of their Latency — every quantity a run-level counter has ever
// been derived from, declared once. The zero value is ready; Observe takes
// no lock and allocates nothing.
type Tally struct {
	cells [numTypes]struct{ n, errs, sum, latency, maxLatency atomic.Int64 }
}

// Observe folds ev into its type's cell; an undeclared Type is dropped.
func (t *Tally) Observe(ev Event) {
	if ev.Type <= 0 || ev.Type >= numTypes {
		return
	}
	c := &t.cells[ev.Type]
	c.n.Add(1)
	if ev.Err != nil {
		c.errs.Add(1)
	}
	if ev.Count != 0 {
		c.sum.Add(int64(ev.Count))
	}
	if ns := int64(ev.Latency); ns != 0 {
		c.latency.Add(ns)
		for {
			old := c.maxLatency.Load()
			if ns <= old || c.maxLatency.CompareAndSwap(old, ns) {
				break
			}
		}
	}
}

// Snapshot copies the cells out. Each cell is read atomically; the snapshot
// as a whole is not one instant when events are still arriving.
func (t *Tally) Snapshot() Snapshot {
	var s Snapshot
	for i := range t.cells {
		c := &t.cells[i]
		s[i] = Counts{
			N: c.n.Load(), Errs: c.errs.Load(), Sum: c.sum.Load(),
			Latency: time.Duration(c.latency.Load()), MaxLatency: time.Duration(c.maxLatency.Load()),
		}
	}
	return s
}

// Counts is one event type's totals: N events, Errs of them failed, Sum of
// their Count fields (moved registrations for ReshardMove; a shard count,
// not a quantity, for EpochFlip), Latency summed and at its maximum.
type Counts struct {
	N, Errs, Sum        int64
	Latency, MaxLatency time.Duration
}

// Snapshot is a Tally's cells at one reading, a plain comparable value.
type Snapshot [numTypes]Counts

// Of returns the totals of one event type (zero for an undeclared one).
func (s Snapshot) Of(t Type) Counts {
	if t <= 0 || t >= numTypes {
		return Counts{}
	}
	return s[t]
}

// String lists every type that fired as name=N, in declaration order,
// with the failed share where there is one: "probe-served=12
// shard-lookup=9(2 failed)". Empty when nothing fired.
func (s Snapshot) String() string {
	var b strings.Builder
	for t := Type(1); t < numTypes; t++ {
		c := s[t]
		if c.N == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", t, c.N)
		if c.Errs > 0 {
			fmt.Fprintf(&b, "(%d failed)", c.Errs)
		}
	}
	return b.String()
}
