//go:build race

package cluster

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool drops items on purpose and allocation budgets mean nothing.
const raceEnabled = true
