// Package stats provides the small statistical utilities the LD library
// needs: the mean, the site-frequency spectrum, and the χ² tail
// probability used to assess LD significance (χ² = Nseq·r² with one
// degree of freedom for biallelic SNPs).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SFS computes the folded or unfolded site-frequency spectrum from
// per-SNP derived-allele counts: bin i of the unfolded spectrum counts
// SNPs with exactly i derived copies (i in 1..n−1; monomorphic sites are
// ignored). The folded spectrum merges i and n−i.
func SFS(counts []int, samples int, folded bool) []int {
	if samples < 2 {
		return nil
	}
	var out []int
	if folded {
		out = make([]int, samples/2+1)
	} else {
		out = make([]int, samples)
	}
	for _, c := range counts {
		if c <= 0 || c >= samples {
			continue
		}
		if folded {
			f := c
			if samples-c < f {
				f = samples - c
			}
			out[f]++
		} else {
			out[c]++
		}
	}
	return out
}

// ChiSquarePValue returns P(X ≥ x) for a χ² random variable with df
// degrees of freedom, via the regularized upper incomplete gamma function
// Q(df/2, x/2).
func ChiSquarePValue(x float64, df int) (float64, error) {
	if df < 1 {
		return 0, fmt.Errorf("stats: invalid degrees of freedom %d", df)
	}
	if x < 0 {
		return 1, nil
	}
	return regularizedGammaQ(float64(df)/2, x/2)
}

// regularizedGammaQ computes Q(a, x) = Γ(a, x)/Γ(a) with the standard
// series/continued-fraction split (Numerical Recipes §6.2).
func regularizedGammaQ(a, x float64) (float64, error) {
	switch {
	case x < 0 || a <= 0:
		return 0, fmt.Errorf("stats: invalid gamma args a=%v x=%v", a, x)
	case x == 0:
		return 1, nil
	case x < a+1:
		p, err := gammaPSeries(a, x)
		return 1 - p, err
	default:
		return gammaQContinuedFraction(a, x)
	}
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 500
)

// gammaPSeries evaluates P(a, x) by its power series.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("stats: gamma series did not converge (a=%v x=%v)", a, x)
}

// gammaQContinuedFraction evaluates Q(a, x) by the Lentz continued
// fraction.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("stats: gamma continued fraction did not converge (a=%v x=%v)", a, x)
}
