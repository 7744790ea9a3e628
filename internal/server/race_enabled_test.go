//go:build race

package server

// raceEnabled reports that this test binary runs under the race detector,
// which slows the single-threaded bulk differentials tenfold and has
// nothing to find in them.
const raceEnabled = true
