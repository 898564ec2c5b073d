// Package p2pstream is a Go implementation of the peer-to-peer media
// streaming system of "On Peer-to-Peer Media Streaming" (Dongyan Xu,
// Mohamed Hefeeda, Susanne Hambrusch, Bharat Bhargava; ICDCS 2002).
//
// The paper studies on-demand streaming of a CBR media file where every
// session is served by multiple supplying peers and every served peer
// becomes a supplier, and contributes two mechanisms, both implemented
// here:
//
//   - OTS_p2p (Section 3): the optimal assignment of media segments to a
//     session's heterogeneous suppliers, minimizing buffering delay
//     (Theorem 1: the minimum is n·δt for n suppliers). See Assign.
//
//   - DAC_p2p (Section 4): a fully distributed, differentiated admission
//     control protocol in which suppliers probabilistically favor
//     requesting peers that pledge more out-bound bandwidth, relax when
//     idle and tighten on "reminders" — amplifying total system capacity
//     faster than the non-differentiated baseline NDAC_p2p. See Supplier
//     (state machine) and Simulate (whole-system evaluation).
//
// The package re-exports the stable core of the internal implementation:
//
//   - bandwidth classes and exact offer arithmetic (Class, Fraction, R0);
//   - the assignment algorithms and schedule analysis (Assign, BlockAssign,
//     Assignment);
//   - the admission protocol building blocks (Vector, Supplier, Policy);
//   - the discrete-event whole-system simulator behind the paper's
//     evaluation (Simulate, SimConfig, SimResult);
//   - the live overlay behind one context-first entrypoint: an Overlay
//     built with functional options wires nodes (Node), discovery and
//     lifecycle for all three discovery backends — the centralized
//     directory (WithDirectory), the consistent-hash sharded directory
//     (WithShardedDirectory) and the fully decentralized wire-level Chord
//     ring (WithChord) — and runs over real TCP on the wall clock or, for
//     deterministic millisecond-fast cluster scenarios, over an in-memory
//     virtual network (WithNetwork, WithNetworkFor) under a virtual clock
//     (WithClock). The whole request path takes a context.Context
//     (cancellation and deadlines abort dials, probes and sessions),
//     failures are typed errors.Is-able sentinels (ErrRejected,
//     ErrNoSuppliers, ErrClosed, ErrAllShardsDown), and one Observer
//     (WithObserver) receives every component's events;
//
// A live overlay session, end to end:
//
//	ov, _ := p2pstream.NewOverlay(file, p2pstream.WithDirectory("127.0.0.1:7000"))
//	defer ov.Close()
//	seed, _ := ov.Seed(ctx, p2pstream.OverlayPeer{ID: "s1", Class: 1})
//	req, _ := ov.Requester(ctx, p2pstream.OverlayPeer{ID: "r1", Class: 2})
//	report, _ := req.RequestUntilAdmitted(ctx, "", 10)
//
// A minimal assignment:
//
//	suppliers := []p2pstream.Supplier{
//		{ID: "a", Class: 1}, {ID: "b", Class: 2},
//		{ID: "c", Class: 3}, {ID: "d", Class: 3},
//	}
//	a, err := p2pstream.Assign(suppliers)
//	// a.Segments[i] is what suppliers[i] transmits; delay = 4·δt.
//
// And the paper's headline experiment:
//
//	cfg := p2pstream.DefaultSimConfig() // 100 seeds, 50,000 peers, 144 h
//	res, err := p2pstream.Simulate(cfg)
//	// res.Capacity is Figure 4's curve; res.AvgRejections is Table 1.
package p2pstream

import (
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/chordnet"
	"p2pstream/internal/clock"
	"p2pstream/internal/core"
	"p2pstream/internal/dac"
	"p2pstream/internal/directory"
	"p2pstream/internal/media"
	"p2pstream/internal/netx"
	"p2pstream/internal/node"
	"p2pstream/internal/reshard"
	"p2pstream/internal/scenario"
	"p2pstream/internal/system"
)

// Class identifies a peer bandwidth class; a class-c peer offers out-bound
// bandwidth R0/2^c. Lower numbers are higher classes.
type Class = bandwidth.Class

// Fraction is an exact bandwidth amount in binary fractions of the
// playback rate R0.
type Fraction = bandwidth.Fraction

// R0 is the media playback rate in Fraction units.
const R0 = bandwidth.R0

// Distribution describes the population share of each class.
type Distribution = bandwidth.Distribution

// Supplier is one supplying peer in a streaming session.
type Supplier = core.Supplier

// Assignment maps media segments to the session's suppliers.
type Assignment = core.Assignment

// Assign computes the optimal OTS_p2p media data assignment. The suppliers'
// offers must sum to exactly R0; the resulting buffering delay is
// len(suppliers)·δt (Theorem 1).
func Assign(suppliers []Supplier) (*Assignment, error) { return core.Assign(suppliers) }

// BlockAssign computes the naive contiguous-block assignment the paper uses
// as "Assignment I" in Figure 1 — correct but suboptimal.
func BlockAssign(suppliers []Supplier) (*Assignment, error) { return core.BlockAssign(suppliers) }

// OptimalDelaySlots returns Theorem 1's minimum buffering delay, in δt
// slots, for a session with n suppliers.
func OptimalDelaySlots(n int) int64 { return core.OptimalDelaySlots(n) }

// Policy selects the admission protocol.
type Policy = dac.Policy

// Admission control policies.
const (
	// DAC is the paper's differentiated admission control protocol.
	DAC = dac.DAC
	// NDAC is the non-differentiated baseline.
	NDAC = dac.NDAC
)

// Vector is a supplying peer's per-class admission probability vector.
type Vector = dac.Vector

// AdmissionSupplier is the supplying-peer side of the admission protocol: a
// deterministic state machine over probes, reminders, sessions and idle
// timeouts.
type AdmissionSupplier = dac.Supplier

// NewAdmissionSupplier returns the admission state of a class-own supplier
// in a system with numClasses classes.
func NewAdmissionSupplier(own, numClasses Class, policy Policy) (*AdmissionSupplier, error) {
	return dac.NewSupplier(own, numClasses, policy)
}

// BackoffConfig holds the requester retry parameters T_bkf and E_bkf, and
// the optional jitter of the live retry loop.
type BackoffConfig = dac.BackoffConfig

// SimConfig parameterizes a whole-system simulation run.
type SimConfig = system.Config

// SimResult carries the metrics behind every figure and table of the
// paper's evaluation.
type SimResult = system.Result

// DefaultSimConfig returns the paper's Section 5.1 setup.
func DefaultSimConfig() SimConfig { return system.DefaultConfig() }

// Simulate executes one whole-system simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return system.Run(cfg) }

// Scenario surface: the live overlay node plus the pluggable clock and
// network substrates that let the same node run over real TCP or inside a
// deterministic virtual cluster.

// Clock is the time source and scheduler of the session layer: the wall
// clock (SystemClock) or a virtual clock (NewVirtualClock).
type Clock = clock.Clock

// VirtualClock is a concurrency-safe virtual clock; drive it with Advance
// or AutoRun.
type VirtualClock = clock.Virtual

// SystemClock returns the real wall clock.
func SystemClock() Clock { return clock.System() }

// NewVirtualClock returns a virtual clock for deterministic scenarios.
func NewVirtualClock() *VirtualClock { return clock.NewVirtual() }

// Network provides the overlay's listeners and connections: real TCP
// (SystemNetwork) or an in-memory virtual network (NewVirtualNetwork).
type Network = netx.Network

// VirtualNetwork is an in-memory network of named hosts with per-link
// latency, jitter, dial-drop probability and host churn.
type VirtualNetwork = netx.Virtual

// LinkConfig describes one virtual-network link.
type LinkConfig = netx.LinkConfig

// SystemNetwork returns the real TCP network.
func SystemNetwork() Network { return netx.System }

// NewVirtualNetwork returns an empty virtual network whose delays run on
// clk; the seed fixes jitter and drop randomness.
func NewVirtualNetwork(clk Clock, seed int64) *VirtualNetwork { return netx.NewVirtual(clk, seed) }

// Node is a live peer of the streaming overlay.
type Node = node.Node

// SessionReport describes a completed streaming session from the
// requester's perspective.
type SessionReport = node.SessionReport

// Discovery backends: how a live peer finds the overlay (paper Section
// 4.2, footnote 4). An Overlay option selects one — the Napster-style
// directory (WithDirectory), its sharded and elastic forms
// (WithShardedDirectory, WithAutoscale) or the wire-level Chord ring
// (WithChord); below are the servers a deployment runs and the templates
// those options take.

// DirectoryServer is the overlay's Napster-style lookup service; Start it
// on an address of the chosen Network.
type DirectoryServer = directory.Server

// NewDirectoryServer returns an empty directory server; the seed fixes
// candidate sampling.
func NewDirectoryServer(seed int64) *DirectoryServer { return directory.NewServer(seed) }

// DirectoryShardRing deterministically maps supplier keys to registry
// shards by consistent hashing on the chord identifier circle; every
// client builds the same ring from the same shard count.
type DirectoryShardRing = directory.ShardRing

// NewDirectoryShardRing returns the canonical ring over n shards.
func NewDirectoryShardRing(n int) (*DirectoryShardRing, error) { return directory.NewShardRing(n) }

// ShardedDirectoryConfig parameterizes a sharded directory client: the
// registry split across several DirectoryServer instances, registrations
// routed to the owning shard by consistent hashing, candidate lookups fanned
// out across all shards, and lease-style re-registration that repopulates a
// shard returning empty from a crash. See WithShardedDirectory.
type ShardedDirectoryConfig = directory.ShardedConfig

// ReshardController is the elastic-directory autoscaling loop: it samples
// per-shard load (lookups per interval) on the shared clock, spawns a
// registry shard when mean load sustains above a high-water mark, drains
// the coldest spawned shard when it sustains below a low-water mark, and
// announces every change as a resharding epoch that watching sharded
// clients migrate to with zero lost registrations and zero lookup misses.
// A DirectoryDeployment runs one; attach it to an overlay with
// WithAutoscale.
type ReshardController = reshard.Controller

// ReshardConfig parameterizes a resharding controller: the sampling
// interval, the load watermarks and the shard ceiling. DeployDirectory
// fills in the membership and the hooks that boot and retire shards.
type ReshardConfig = reshard.Config

// ReshardMember is one registry shard under a resharding controller: its
// stable ring name, the address clients dial, and the server whose stats
// feed the load loop.
type ReshardMember = reshard.Member

// DirectoryDeployment is a directory registry as it runs: its bootstrap
// shards, the shards spawned since, and the autoscaling controller, if
// any. Close stops the controller and closes every shard server once.
type DirectoryDeployment = reshard.Deployment

// DeployDirectory boots shards registry shards through boot — called with
// the shard index and "" for a first boot — and, given an autoscale
// config, starts a resharding controller over them. The bootstrap shards
// are pinned: only shards the controller spawned ever drain. This is the
// deployment p2pdir runs.
func DeployDirectory(shards int, boot func(i int, addr string) (*DirectoryServer, string, error), autoscale *ReshardConfig) (*DirectoryDeployment, error) {
	return reshard.Deploy(shards, boot, autoscale)
}

// ChordDiscoveryConfig parameterizes a chord discovery peer: a wire-level
// Chord ring member that joins on registration, maintains successors and
// fingers via stabilization, and samples candidates by routing random-key
// lookups — no directory server anywhere. See WithChord.
type ChordDiscoveryConfig = chordnet.Config

// MediaFile describes the streamed media item.
type MediaFile = media.File

// Declarative scenarios: whole-cluster runs described as data — hosts,
// link schedules, churn schedules, workloads — executed on the virtual
// substrate with invariant checks (internal/scenario).

// Scenario is a declarative cluster scenario: topology, link schedule,
// churn schedule and workload as data. Run it with RunScenario.
type Scenario = scenario.Spec

// ScenarioPeer declares one overlay peer of a scenario.
type ScenarioPeer = scenario.Peer

// ScenarioLink configures the links between two hosts of a scenario; its
// B side may be ScenarioWildcard.
type ScenarioLink = scenario.Link

// ScenarioLinkEvent mutates link configuration at a virtual instant.
type ScenarioLinkEvent = scenario.LinkEvent

// ScenarioChurnEvent schedules churn: a crash, a graceful leave, or a
// join.
type ScenarioChurnEvent = scenario.ChurnEvent

// ScenarioExpect declares a scenario's acceptance envelope.
type ScenarioExpect = scenario.Expect

// Churn actions for ScenarioChurnEvent.
const (
	ScenarioCrash = scenario.Crash
	ScenarioLeave = scenario.Leave
	ScenarioJoin  = scenario.Join
)

// ScenarioWildcard, as a link's B side, means "every other host".
const ScenarioWildcard = scenario.Wildcard

// ScenarioShardHost returns the virtual host name of directory registry
// shard i (shard 0 is the directory host itself). With
// Scenario.DirectoryShards >= 2, churn events may Crash a shard host and
// Join it back.
func ScenarioShardHost(i int) string { return scenario.ShardHost(i) }

// ScenarioBackend selects a scenario's discovery substrate.
type ScenarioBackend = scenario.Backend

// Scenario discovery backends.
const (
	// ScenarioBackendDirectory runs the centralized directory server.
	ScenarioBackendDirectory = scenario.BackendDirectory
	// ScenarioBackendChord runs wire-level chord discovery with no
	// directory server at all.
	ScenarioBackendChord = scenario.BackendChord
)

// ScenarioReport is the outcome of a scenario run: per-requester results,
// shared-axis metric series, and invariant checks (Check).
type ScenarioReport = scenario.Report

// RunScenario executes a scenario on a fresh virtual substrate.
func RunScenario(spec Scenario) (*ScenarioReport, error) { return scenario.Run(spec) }

// ScenarioCatalog returns the named conformance scenarios (RFC 8867-style
// stresses: variable capacity, flash crowd, churn storm, partition-heal,
// ...), each runnable via RunScenario or cmd/p2pscen.
func ScenarioCatalog() []Scenario { return scenario.Catalog() }

// ScenarioByName returns the cataloged scenario with the given name.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }
