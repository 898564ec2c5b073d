package system_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"p2pstream/internal/arrival"
	"p2pstream/internal/dac"
	"p2pstream/internal/experiments"
	"p2pstream/internal/metrics"
	"p2pstream/internal/system"
)

// resultDigest is SHA-256 over every field of a Result except Config: all
// series (name, times, values, missing flags), the per-class aggregates and
// the counters. Two runs agree on it only if they drew the same random
// numbers in the same order, fired equal-time events in the same order and
// counted the same (lazily cancelled) events.
func resultDigest(r *system.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	series := func(list ...*metrics.Series) {
		put(uint64(len(list)))
		for _, s := range list {
			put(uint64(len(s.Name)))
			h.Write([]byte(s.Name))
			put(uint64(s.Len()))
			for i := 0; i < s.Len(); i++ {
				put(uint64(s.Times[i]))
				if s.Missing(i) {
					put(1) // the placeholder value is a NaN; its payload is not part of the result
					continue
				}
				put(0)
				put(math.Float64bits(s.Values[i]))
			}
		}
	}
	ints := func(list []int64) {
		put(uint64(len(list)))
		for _, v := range list {
			put(uint64(v))
		}
	}
	floats := func(list []float64) {
		put(uint64(len(list)))
		for _, v := range list {
			put(math.Float64bits(v))
		}
	}
	series(r.Capacity)
	put(uint64(r.MaxCapacity))
	series(r.AdmissionRate...)
	series(r.OverallAdmissionRate)
	series(r.BufferingDelay...)
	series(r.LowestFavored...)
	ints(r.Admitted)
	ints(r.Arrived)
	floats(r.AvgRejections)
	floats(r.AvgDelaySlots)
	put(uint64(len(r.AvgWait)))
	for _, w := range r.AvgWait {
		put(uint64(w))
	}
	ints([]int64{r.TotalProbes, r.TotalReminders, r.TotalRequests, r.TotalDown})
	put(r.Events)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRuns are ReducedScale, pattern 2, with digests recorded at commit
// ee41446, before the engine, the admission sweep, the candidate sampler and
// the assignment were rewritten to stop allocating. TestRunDeterministic
// compares two runs of one binary; this compares every binary since with
// that one.
var goldenRuns = []struct {
	policy   dac.Policy
	lookup   system.LookupKind
	seed     int64
	downProb float64
	digest   string
}{
	{dac.DAC, system.LookupDirectory, 1, 0, "19c9e667a443613c8578ab24682ff0454b61b1622d43a98deb99ffa4cf27bf87"},
	{dac.DAC, system.LookupDirectory, 2, 0, "ab3da2443b1b90402fd5ac170851dc565fd55cf57ba222fe83ab0fe623c7e143"},
	{dac.DAC, system.LookupDirectory, 3, 0, "9f9e07deaf665c863ed893fe6d2f4e0785f3c68ad62d7ecdb6a9b07f83b3cf11"},
	{dac.DAC, system.LookupChord, 1, 0, "6df31a93df787d90255c32397bf9344c1eb489557c64984797c62235c8e601a7"},
	{dac.DAC, system.LookupChord, 2, 0, "a1c017db84ba4beb9c28a7f1c037ebf89a74f803eceba4a0d4bb1c315537a7b8"},
	{dac.DAC, system.LookupChord, 3, 0, "440e4253a0ce63cf3129751641dff634a724634080f4d683ce407c1e8d804e75"},
	{dac.NDAC, system.LookupDirectory, 1, 0, "14bd307ba81dd07284dc22f7cb7c554f336525b3fc921b8fb2d4f2298f69c79a"},
	{dac.NDAC, system.LookupDirectory, 2, 0, "441a8d67d125064ec8395b364e9bbb7baf15ad58c2d7577667e89c185f38a612"},
	{dac.NDAC, system.LookupDirectory, 3, 0, "1dde7e58d0fbc78cf00de978aab284a8395fb19b3a95aa3e716e98164cd3241c"},
	{dac.NDAC, system.LookupChord, 1, 0, "116aa3a30e3b8852f8de7fe9ca8aa6ffb24a8e39f3ee4e06e15bee525319a074"},
	{dac.NDAC, system.LookupChord, 2, 0, "1e9bda25ce937472903de5ded0aa08e3b0157a07fd8c1b6cc753b92250231162"},
	{dac.NDAC, system.LookupChord, 3, 0, "833b4ef1416b1f1715b71828ae939577cda92dd0b636379dd28aa5de3aed0cae"},
	{dac.DAC, system.LookupDirectory, 7, 0.1, "f9210e8fe176ca3a6306441de6c6ec0c790e19eee9edd3a16e0051ec406203a0"},
}

func TestGoldenResultDigests(t *testing.T) {
	for _, g := range goldenRuns {
		cfg := experiments.ReducedScale.Config(g.policy, arrival.Pattern2RampUpDown)
		cfg.Lookup = g.lookup
		cfg.Seed = g.seed
		cfg.DownProb = g.downProb
		t.Run(fmt.Sprintf("%v/%v/seed%d/down%g", g.policy, g.lookup, g.seed, g.downProb), func(t *testing.T) {
			t.Parallel() // independent simulations; the chord ones are slow under -race
			res, err := system.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g.downProb > 0 && res.TotalDown == 0 {
				t.Error("DownProb set but no probe was lost: the down path went unexercised")
			}
			if got := resultDigest(res); got != g.digest {
				t.Errorf("digest %s, recorded %s (events %d, probes %d, requests %d, reminders %d)",
					got, g.digest, res.Events, res.TotalProbes, res.TotalRequests, res.TotalReminders)
			}
		})
	}
}

// TestFullScaleCounters pins the paper-scale run the benchmark's sim-day
// workload repeats (FullScale, DAC, pattern 2) at the first seed it uses
// for --seed 1: the counters below were read at commit ee41446.
func TestFullScaleCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("a 50,000-peer run")
	}
	t.Parallel()
	cfg := experiments.FullScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
	cfg.Seed = 1<<20 + 1
	res, err := system.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := [4]int64{int64(res.Events), res.TotalProbes, res.TotalRequests, res.TotalReminders}
	if want := [4]int64{425210, 1366081, 201383, 303010}; got != want {
		t.Errorf("events, probes, requests, reminders = %v, recorded %v", got, want)
	}
}

// BenchmarkSimRunReduced is one whole simulation at the reduced scale: the
// per-peer cost and allocation count of the shared core as the simulator
// drives it.
func BenchmarkSimRunReduced(b *testing.B) {
	cfg := experiments.ReducedScale.Config(dac.DAC, arrival.Pattern2RampUpDown)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := system.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
