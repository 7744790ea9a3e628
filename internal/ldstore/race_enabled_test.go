//go:build race

package ldstore

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation and sync.Pool behavior inflate
// TotalAlloc far beyond what the code under test allocates.
const raceEnabled = true
