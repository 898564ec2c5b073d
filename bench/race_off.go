//go:build !race

package main

// raceEnabled reports a -race build, whose timings the benchmark refuses
// to record.
const raceEnabled = false
