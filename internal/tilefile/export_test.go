package tilefile

import "os"

// Test-only exports for the external suite, which must live outside this
// package to import the two codec packages.
var (
	ParseManifest = parseManifest
	BandsFor      = bandsFor
	TilesThrough  = tilesThrough
)

// SetFSForTest replaces the build's data-write / fsync / rename seam until
// restore is called, so the suite can record the durability order and
// inject faults. A nil argument keeps the real call.
func SetFSForTest(write func(*os.File, []byte) (int, error), sync func(*os.File) error, rename func(oldpath, newpath string) error) (restore func()) {
	old := fsys
	if write != nil {
		fsys.write = write
	}
	if sync != nil {
		fsys.sync = sync
	}
	if rename != nil {
		fsys.rename = rename
	}
	return func() { fsys = old }
}
