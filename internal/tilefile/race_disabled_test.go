//go:build !race

package tilefile_test

const raceEnabled = false
