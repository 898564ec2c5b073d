package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	flags := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := flags.Start()
	if err != nil {
		t.Fatal(err)
	}
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

func TestProfilesOffByDefault(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	flags := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := flags.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfileStartFailsOnBadPath(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	flags := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := flags.Start(); err == nil {
		t.Error("Start succeeded with an uncreatable CPU profile path")
	}
}
