// Package profiling gives the command-line tools their -cpuprofile and
// -memprofile flags, so profiling the simulator, an experiment sweep or a
// scenario takes a flag rather than a throw-away test file.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; empty means off.
type Flags struct {
	cpu, mem string
}

// Register declares -cpuprofile and -memprofile on fs. Call it before
// fs.Parse and Start after.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile of the run to this file")
	return f
}

// memProfileRate samples one allocation per 4 KiB allocated instead of the
// runtime's one per 512 KiB: a paper-scale simulation allocates well under
// 100 MB, which the default would summarize in a hundred-odd samples.
const memProfileRate = 4096

// Start begins the requested profiles. The returned stop ends the CPU
// profile and writes the allocation profile (every allocation since Start,
// live or not: read it with -sample_index=alloc_objects or alloc_space);
// call it once, when the work to be profiled is done.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	if f.mem != "" {
		runtime.MemProfileRate = memProfileRate
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if f.mem == "" {
			return nil
		}
		mem, err := os.Create(f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports allocations as of the last completed collection
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			mem.Close()
			return fmt.Errorf("writing allocation profile: %w", err)
		}
		return mem.Close()
	}, nil
}
