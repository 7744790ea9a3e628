//go:build race

package core

// raceEnabled reports that this test binary runs under the race detector,
// under which sync.Pool drops a share of what is Put.
const raceEnabled = true
