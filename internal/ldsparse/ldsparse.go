// Package ldsparse names the pruned LD store, whose code is
// internal/ldstore, for callers that still spell it by this package: a
// build here is pruned whatever its predicate, τ = 0 with no band too.
package ldsparse

import (
	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldstore"
)

type (
	Store              = ldstore.Store
	Options            = ldstore.Options
	BuildOptions       = ldstore.BuildOptions
	SourceBuildOptions = ldstore.SourceBuildOptions
	BuildStats         = ldstore.BuildStats
	Stats              = ldstore.Stats
)

var (
	Open                = ldstore.Open
	BuildFileFromSource = ldstore.BuildPrunedFromSource
	ReadStats           = ldstore.ReadPrunedStats
)

// BuildFile builds the pruned store of g at path.
func BuildFile(path string, g *bitmat.Matrix, opt BuildOptions) (BuildStats, error) {
	return BuildFileFromSource(path, bitmat.NewMemSource(g), SourceBuildOptions{BuildOptions: opt})
}
