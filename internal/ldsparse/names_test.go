package ldsparse

import (
	"ldgemm/internal/ldstore"
	"ldgemm/internal/tilefile"
)

// The tests here hold the pruned store through this package's names. The
// names below are the rest of what they spell: ldstore's, aliased.

type Stat = ldstore.Stat

const (
	StatR2     = ldstore.StatR2
	StatD      = ldstore.StatD
	StatDPrime = ldstore.StatDPrime
)

var SetResidentBudgetForTest = ldstore.SetResidentBudgetForTest

// format restates the pruned store's container format, as the tilefile
// suite does.
var format = tilefile.Format{Name: "ldstore", Magic: [4]byte{'L', 'D', 'S', 'S'}, ManifestMagic: "ldsparse-checkpoint", Version: 2, ExtSize: 32}

// foldGrain is ldstore's: the fewest row-layout cells a resident matvec
// folds on a goroutine of their own.
const foldGrain = 1 << 16

// foldCells is how many cells a matvec over s folds: each stored entry and
// its mirror, a diagonal entry once.
func foldCells(s *Store) int {
	diag := 0
	for i := range s.SNPs() {
		if _, ok, _ := s.Lookup(i, i); ok {
			diag++
		}
	}
	return 2*int(s.NNZ()) - diag
}
