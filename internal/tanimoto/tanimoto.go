// Package tanimoto adapts the LD GEMM machinery to chemical informatics,
// the "other domains" use case of Section VII: compounds represented as
// binary 2-D fingerprints, compared with the Tanimoto coefficient
//
//	T(A, B) = x / (p + q − x)
//
// where p and q are the set-bit counts of the two fingerprints and x the
// set-bit count of their intersection (Eq. 7). The intersection counts for
// all pairs are exactly the haplotype-count matrix of the LD kernel, so
// all-pairs similarity runs through the same blocked GEMM.
package tanimoto

import (
	"fmt"
	"math/rand"
	"sort"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/popcount"
)

// Fingerprints is a set of equal-width binary fingerprints. Internally a
// bit matrix with one "SNP" column per compound and one "sample" bit per
// fingerprint feature.
type Fingerprints struct {
	m *bitmat.Matrix
}

// New returns a zeroed fingerprint set.
func New(compounds, bits int) *Fingerprints {
	return &Fingerprints{m: bitmat.New(compounds, bits)}
}

// Compounds returns the number of fingerprints.
func (f *Fingerprints) Compounds() int { return f.m.SNPs }

// Bits returns the fingerprint width.
func (f *Fingerprints) Bits() int { return f.m.Samples }

// Set marks feature bit b of compound c.
func (f *Fingerprints) Set(c, b int) { f.m.SetBit(c, b) }

// Clear unmarks feature bit b of compound c.
func (f *Fingerprints) Clear(c, b int) { f.m.ClearBit(c, b) }

// Has reports feature bit b of compound c.
func (f *Fingerprints) Has(c, b int) bool { return f.m.Bit(c, b) }

// Popcount returns the number of set features of compound c.
func (f *Fingerprints) Popcount(c int) int { return f.m.DerivedCount(c) }

// Random generates a fingerprint set in which each feature bit is set
// independently with probability density — a stand-in for the output of a
// subgraph-isomorphism fingerprinting pipeline.
func Random(compounds, bits int, density float64, seed int64) (*Fingerprints, error) {
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("tanimoto: invalid density %v", density)
	}
	rng := rand.New(rand.NewSource(seed))
	f := New(compounds, bits)
	for c := 0; c < compounds; c++ {
		for b := 0; b < bits; b++ {
			if rng.Float64() < density {
				f.Set(c, b)
			}
		}
	}
	return f, nil
}

// Pair computes the Tanimoto coefficient between two compounds directly.
// Two empty fingerprints have similarity 0 by convention.
func (f *Fingerprints) Pair(i, j int) float64 {
	si, sj := f.m.SNP(i), f.m.SNP(j)
	var x, p, q int
	for w := range si {
		x += popcount.Word(si[w] & sj[w])
		p += popcount.Word(si[w])
		q += popcount.Word(sj[w])
	}
	den := p + q - x
	if den == 0 {
		return 0
	}
	return float64(x) / float64(den)
}

// AllPairs computes the full symmetric Tanimoto matrix through the blocked
// GEMM driver: one rank-k update for the intersection counts, then the
// O(n²) Eq. 7 epilogue.
func (f *Fingerprints) AllPairs(cfg blis.Config) ([]float64, error) {
	n := f.m.SNPs
	counts := make([]uint32, n*n)
	if err := blis.Syrk(cfg, f.m, counts, n, true); err != nil {
		return nil, err
	}
	pops := make([]int, n)
	for c := range pops {
		pops[c] = f.m.DerivedCount(c)
	}
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := int(counts[i*n+j])
			den := pops[i] + pops[j] - x
			var t float64
			if den != 0 {
				t = float64(x) / float64(den)
			}
			out[i*n+j] = t
			out[j*n+i] = t
		}
	}
	return out, nil
}

// Match is one similarity-search hit.
type Match struct {
	Compound   int
	Similarity float64
}

// TopK returns the k most similar compounds to query (excluding the query
// itself), ties broken by compound index. It computes one GEMM row via
// Cross on a single-column slice.
func (f *Fingerprints) TopK(query, k int, cfg blis.Config) ([]Match, error) {
	n := f.m.SNPs
	if query < 0 || query >= n {
		return nil, fmt.Errorf("tanimoto: query %d outside 0..%d", query, n-1)
	}
	if k < 0 {
		return nil, fmt.Errorf("tanimoto: negative k")
	}
	row := make([]uint32, n)
	if err := blis.Gemm(cfg, f.m.Slice(query, query+1), f.m, row, n); err != nil {
		return nil, err
	}
	qp := f.m.DerivedCount(query)
	matches := make([]Match, 0, n-1)
	for c := 0; c < n; c++ {
		if c == query {
			continue
		}
		x := int(row[c])
		den := qp + f.m.DerivedCount(c) - x
		sim := 0.0
		if den != 0 {
			sim = float64(x) / float64(den)
		}
		matches = append(matches, Match{Compound: c, Similarity: sim})
	}
	sort.SliceStable(matches, func(a, b int) bool {
		if matches[a].Similarity != matches[b].Similarity {
			return matches[a].Similarity > matches[b].Similarity
		}
		return matches[a].Compound < matches[b].Compound
	})
	if k < len(matches) {
		matches = matches[:k]
	}
	return matches, nil
}
