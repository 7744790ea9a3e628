package tilefile

// Test-only exports for the external suite, which must live outside this
// package to import the two codec packages.
var (
	ParseManifest = parseManifest
	BandsFor      = bandsFor
	TilesThrough  = tilesThrough
)
