package tilefile

import (
	"os"
	"time"
)

// Test-only exports for the external suite, which must live outside this
// package to import the two codec packages.
var (
	ParseManifest = parseManifest
	BandsFor      = bandsFor
	TilesThrough  = tilesThrough
	Writeback     = writeback
)

// SetFSForTest replaces the build's data-write / writeback / fsync /
// rename seam until restore is called, so the suite can record the
// durability order and inject faults. A nil argument keeps the real call.
func SetFSForTest(write func(*os.File, []byte) (int, error), writeback func(f *os.File, off, n int64), sync func(*os.File) error, rename func(oldpath, newpath string) error) (restore func()) {
	old := fsys
	if write != nil {
		fsys.write = write
	}
	if writeback != nil {
		fsys.writeback = writeback
	}
	if sync != nil {
		fsys.sync = sync
	}
	if rename != nil {
		fsys.rename = rename
	}
	return func() { fsys = old }
}

// SetCommitIntervalForTest sets the least time between two checkpoint
// commits until restore is called.
func SetCommitIntervalForTest(d time.Duration) (restore func()) {
	old := commitInterval
	commitInterval = d
	return func() { commitInterval = old }
}
