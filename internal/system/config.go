// Package system assembles the whole peer-to-peer streaming system of the
// paper's evaluation (Section 5): seed suppliers, 50,000 requesting peers
// with heterogeneous classes, the DAC_p2p / NDAC_p2p admission protocols,
// OTS_p2p data assignment, arrival patterns, and the metric probes behind
// every figure and table. It runs on the deterministic discrete-event
// engine from internal/sim.
package system

import (
	"fmt"
	"time"

	"p2pstream/internal/arrival"
	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// Config parameterizes one simulation run. DefaultConfig returns the
// paper's Section 5.1 values.
type Config struct {
	// Policy selects DAC_p2p or the NDAC_p2p baseline.
	Policy dac.Policy
	// NumSeeds is the number of 'seed' supplying peers present at time 0.
	NumSeeds int
	// SeedClass is the bandwidth class of every seed peer.
	SeedClass bandwidth.Class
	// NumRequesters is the number of requesting peers.
	NumRequesters int
	// ClassDist is the class distribution of requesting peers; its length
	// defines K, the number of classes.
	ClassDist bandwidth.Distribution
	// M is the number of candidate supplying peers a requester probes.
	M int
	// TOut is the idle timeout after which a supplier elevates lower-class
	// admission probabilities.
	TOut time.Duration
	// Backoff holds T_bkf and E_bkf; its Jitter must be 0.
	Backoff dac.BackoffConfig
	// SessionDuration is the media show time T (streaming session length).
	SessionDuration time.Duration
	// Pattern is the first-request arrival pattern.
	Pattern arrival.Pattern
	// ArrivalWindow is the span during which first requests arrive.
	ArrivalWindow time.Duration
	// Horizon is the total simulated time.
	Horizon time.Duration
	// SampleEvery is the sampling period of the accumulative series
	// (capacity, admission rate, buffering delay).
	SampleEvery time.Duration
	// FavoredSampleEvery is the snapshot period of the lowest-favored-class
	// series (the paper's Figure 7 uses 3-hour averages).
	FavoredSampleEvery time.Duration
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// ValidateAssignments, when set, runs OTS_p2p on every admission and
	// checks the Theorem 1 delay, failing loudly on any violation. It is
	// cheap (microseconds per admission) and on by default.
	ValidateAssignments bool

	// Lookup selects the candidate-discovery substrate: the Napster-style
	// directory (default) or the Chord-style consistent-hashing ring the
	// paper cites as its decentralized alternative.
	Lookup LookupKind
	// ChordStabilizeEvery batches ring joins: pending suppliers enter the
	// ring when a lookup occurs at least this long after the previous
	// stabilization (deployed Chord repairs its ring periodically the same
	// way). Only used with LookupChord; default one hour.
	ChordStabilizeEvery time.Duration

	// DownProb injects transient supplier unavailability: each probed
	// candidate is unreachable ("down" in the paper's admission condition)
	// with this probability. Zero by default.
	DownProb float64
}

// LookupKind selects the candidate-discovery substrate.
type LookupKind int

// The available lookup substrates.
const (
	// LookupDirectory samples candidates from a centralized directory.
	LookupDirectory LookupKind = iota
	// LookupChord takes each candidate as the owner of a random key on a
	// Chord-style ring: the supplier whose position follows the key's hash.
	LookupChord
)

// String implements fmt.Stringer.
func (k LookupKind) String() string {
	switch k {
	case LookupDirectory:
		return "directory"
	case LookupChord:
		return "chord"
	default:
		return fmt.Sprintf("LookupKind(%d)", int(k))
	}
}

// DefaultConfig returns the paper's simulation setup: 100 class-1 seeds, a
// 60-minute video, 50,000 requesters distributed 10/10/40/40% over classes
// 1-4, M=8, T_out=20 min, T_bkf=10 min, E_bkf=2, arrivals over 72 h,
// 144 h horizon.
func DefaultConfig() Config {
	return Config{
		Policy:              dac.DAC,
		NumSeeds:            100,
		SeedClass:           1,
		NumRequesters:       50000,
		ClassDist:           bandwidth.Distribution{0.1, 0.1, 0.4, 0.4},
		M:                   8,
		TOut:                20 * time.Minute,
		Backoff:             dac.BackoffConfig{Base: 10 * time.Minute, Factor: 2},
		SessionDuration:     60 * time.Minute,
		Pattern:             arrival.Pattern2RampUpDown,
		ArrivalWindow:       72 * time.Hour,
		Horizon:             144 * time.Hour,
		SampleEvery:         time.Hour,
		FavoredSampleEvery:  3 * time.Hour,
		Seed:                1,
		ValidateAssignments: true,
		Lookup:              LookupDirectory,
		ChordStabilizeEvery: time.Hour,
	}
}

// NumClasses returns K.
func (c Config) NumClasses() bandwidth.Class { return c.ClassDist.NumClasses() }

// Validate returns an error describing the first problem with the
// configuration.
func (c Config) Validate() error {
	if c.Policy != dac.DAC && c.Policy != dac.NDAC {
		return fmt.Errorf("system: unknown policy %d", int(c.Policy))
	}
	if c.NumSeeds < 1 {
		return fmt.Errorf("system: %d seeds, want >= 1", c.NumSeeds)
	}
	if c.NumRequesters < 0 {
		return fmt.Errorf("system: %d requesters, want >= 0", c.NumRequesters)
	}
	if err := c.ClassDist.Validate(); err != nil {
		return err
	}
	if !c.SeedClass.Valid(c.NumClasses()) {
		return fmt.Errorf("system: seed class %d invalid for K=%d", c.SeedClass, c.NumClasses())
	}
	if c.M < 1 {
		return fmt.Errorf("system: M = %d, want >= 1", c.M)
	}
	if c.TOut <= 0 {
		return fmt.Errorf("system: T_out %v, want > 0", c.TOut)
	}
	if err := c.Backoff.Validate(); err != nil {
		return err
	}
	if c.Backoff.Jitter != 0 {
		// The simulator runs the paper's deterministic T_bkf·E_bkf^(i-1)
		// schedule; its golden digests pin it.
		return fmt.Errorf("system: backoff jitter %v, want 0", c.Backoff.Jitter)
	}
	if c.SessionDuration <= 0 {
		return fmt.Errorf("system: session duration %v, want > 0", c.SessionDuration)
	}
	if !c.Pattern.Valid() {
		return fmt.Errorf("system: invalid arrival pattern %d", int(c.Pattern))
	}
	if c.ArrivalWindow <= 0 || c.ArrivalWindow > c.Horizon {
		return fmt.Errorf("system: arrival window %v must be in (0, horizon %v]", c.ArrivalWindow, c.Horizon)
	}
	if c.SampleEvery <= 0 || c.FavoredSampleEvery <= 0 {
		return fmt.Errorf("system: sampling periods must be > 0")
	}
	if c.Lookup != LookupDirectory && c.Lookup != LookupChord {
		return fmt.Errorf("system: unknown lookup kind %d", int(c.Lookup))
	}
	if c.Lookup == LookupChord && c.ChordStabilizeEvery <= 0 {
		return fmt.Errorf("system: chord stabilization period %v, want > 0", c.ChordStabilizeEvery)
	}
	if c.DownProb < 0 || c.DownProb >= 1 {
		return fmt.Errorf("system: down probability %g outside [0, 1)", c.DownProb)
	}
	return nil
}
