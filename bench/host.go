package main

import (
	"math"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host, and what the
// neighbours do to the memory system moves every timing by a fifth or more
// for minutes at a time, while a register-only loop keeps its pace (see
// README.md, "Host-speed correction"). So the run times a fixed piece of
// memory-bound work, a pointer chase, before and after every stretch of the
// workload, while the workload stands still, and reports the stretch's
// timings in proportion to what a step of the chase took at that moment:
// time is counted in the host's memory latencies, and given back in seconds
// of a calm host.
const (
	probeWords = 8 << 20 // 32 MiB of uint32: far past the 4 MiB L2, inside the shared L3
	probeMB    = probeWords * 4 >> 20
	probeSteps = 15_000 // one reading, about 3 ms
	probeReps  = 16     // readings per burst, about 50 ms

	// chaseRefNS is what one step of the chase takes on this kind of host
	// when it is calm. It only fixes the scale of the corrected numbers;
	// comparisons between runs do not depend on it.
	chaseRefNS = 165.0
)

// hostProbe is the pointer chase: one random cycle through probeWords
// words. It lives outside the Go heap, so it changes neither the garbage
// collector's pacing nor the allocation counts of the workload.
type hostProbe struct {
	mem  []byte
	next []uint32
	at   uint32
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeWords)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle through every word
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{mem: mem, next: next}, nil
}

func (p *hostProbe) close() { _ = syscall.Munmap(p.mem) } // cannot fail on a mapping it made

// burst takes probeReps readings, each the nanoseconds one step took.
func (p *hostProbe) burst() []float64 {
	out := make([]float64, probeReps)
	for r := range out {
		start := time.Now()
		at := p.at
		for i := 0; i < probeSteps; i++ {
			at = p.next[at]
		}
		p.at = at
		out[r] = float64(time.Since(start).Nanoseconds()) / probeSteps
	}
	return out
}

// hostFactor is how many times slower than on a calm host a workload runs
// while a chase step takes chaseNS. Measured times are divided by it,
// measured rates multiplied. The exponent is the workload's: how much
// harder than the chase it is hit (workload.go).
func hostFactor(chaseNS, exponent float64) float64 {
	return math.Pow(chaseNS/chaseRefNS, exponent)
}

// bracket is the median reading of the bursts before and after a stretch
// of work.
func bracket(before, after []float64) float64 {
	return median(append(append([]float64(nil), before...), after...))
}

// stretch is one piece of the timed window, between two bursts.
type stretch struct {
	wall, cpu time.Duration
	ops       int
	lat       float64 // median latency sample, ms
	chaseNS   float64 // the host while it ran
}

// timings are a run's headline numbers: the median stretch, corrected for
// the host and as measured.
type timings struct {
	throughput, latMS, cpuUS          float64
	rawThroughput, rawLatMS, rawCPUUS float64
	chaseNS                           float64
}

func summarise(stretches []stretch, exponent float64) timings {
	med := func(of func(stretch) float64) float64 {
		xs := make([]float64, len(stretches))
		for i, s := range stretches {
			xs[i] = of(s)
		}
		return median(xs)
	}
	factor := func(s stretch) float64 { return hostFactor(s.chaseNS, exponent) }
	thr := func(s stretch) float64 { return float64(s.ops) / s.wall.Seconds() }
	cpu := func(s stretch) float64 { return float64(s.cpu.Microseconds()) / float64(s.ops) }
	return timings{
		throughput:    med(func(s stretch) float64 { return thr(s) * factor(s) }),
		latMS:         med(func(s stretch) float64 { return s.lat / factor(s) }),
		cpuUS:         med(func(s stretch) float64 { return cpu(s) / factor(s) }),
		rawThroughput: med(thr),
		rawLatMS:      med(func(s stretch) float64 { return s.lat }),
		rawCPUUS:      med(cpu),
		chaseNS:       med(func(s stretch) float64 { return s.chaseNS }),
	}
}
