//go:build !race

package ldstore

const raceEnabled = false
