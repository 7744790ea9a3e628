package core

import (
	"fmt"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
)

// NumStates is the number of nucleotide states under the finite sites
// model (Section VII, "Facilitating finite sites models").
const NumStates = 4

// StateNames maps FSM plane indices to nucleotides.
var StateNames = [NumStates]byte{'A', 'C', 'G', 'T'}

// FSMMatrix is a finite-sites-model SNP matrix: one bit-plane per
// nucleotide state. Plane s has bit (i, sample) set when the sample
// carries state s at SNP i. A sample with no plane set at a SNP is a gap
// or ambiguous character; a sample must never have more than one plane set
// (Validate checks both invariants' complement: exactly-one-or-zero).
type FSMMatrix struct {
	SNPs    int
	Samples int
	Planes  [NumStates]*bitmat.Matrix
}

// NewFSMMatrix returns an FSM matrix with no states assigned (all gaps).
func NewFSMMatrix(snps, samples int) *FSMMatrix {
	f := &FSMMatrix{SNPs: snps, Samples: samples}
	for s := range f.Planes {
		f.Planes[s] = bitmat.New(snps, samples)
	}
	return f
}

// SetState assigns nucleotide state st (0..3) to sample at SNP i,
// clearing any previously assigned state.
func (f *FSMMatrix) SetState(snp, sample, st int) {
	for s := range f.Planes {
		if s == st {
			f.Planes[s].SetBit(snp, sample)
		} else {
			f.Planes[s].ClearBit(snp, sample)
		}
	}
}

// ClearState marks (snp, sample) as a gap/ambiguous position.
func (f *FSMMatrix) ClearState(snp, sample int) {
	for s := range f.Planes {
		f.Planes[s].ClearBit(snp, sample)
	}
}

// State returns the assigned state at (snp, sample) and whether one is set.
func (f *FSMMatrix) State(snp, sample int) (int, bool) {
	for s := range f.Planes {
		if f.Planes[s].Bit(snp, sample) {
			return s, true
		}
	}
	return 0, false
}

// FromDNA builds an FSM matrix from SNP-major nucleotide columns
// (characters ACGT, case-insensitive; anything else, e.g. '-' or 'N',
// becomes a gap/ambiguous position).
func FromDNA(cols [][]byte) (*FSMMatrix, error) {
	if len(cols) == 0 {
		return NewFSMMatrix(0, 0), nil
	}
	samples := len(cols[0])
	f := NewFSMMatrix(len(cols), samples)
	for i, c := range cols {
		if len(c) != samples {
			return nil, fmt.Errorf("core: FromDNA: column %d has %d entries, want %d", i, len(c), samples)
		}
		for s, ch := range c {
			switch ch {
			case 'A', 'a':
				f.Planes[0].SetBit(i, s)
			case 'C', 'c':
				f.Planes[1].SetBit(i, s)
			case 'G', 'g':
				f.Planes[2].SetBit(i, s)
			case 'T', 't':
				f.Planes[3].SetBit(i, s)
			}
		}
	}
	return f, nil
}

// Validate checks the at-most-one-state-per-position invariant.
func (f *FSMMatrix) Validate() error {
	for i := 0; i < f.SNPs; i++ {
		words := make([][]uint64, NumStates)
		for s := range words {
			words[s] = f.Planes[s].SNP(i)
		}
		for w := range words[0] {
			overlap := words[0][w]&words[1][w] | words[0][w]&words[2][w] |
				words[0][w]&words[3][w] | words[1][w]&words[2][w] |
				words[1][w]&words[3][w] | words[2][w]&words[3][w]
			if overlap != 0 {
				return fmt.Errorf("core: FSM SNP %d word %d has samples with multiple states", i, w)
			}
		}
	}
	return nil
}

// ValidMask returns the per-SNP validity mask: the OR of the four planes.
func (f *FSMMatrix) ValidMask() *bitmat.Mask {
	k := bitmat.NewMask(f.SNPs, f.Samples)
	for w := range k.Data {
		k.Data[w] = f.Planes[0].Data[w] | f.Planes[1].Data[w] |
			f.Planes[2].Data[w] | f.Planes[3].Data[w]
	}
	return k
}

// StateCounts returns the number of samples carrying each state at SNP i,
// and the number of distinct observed states vᵢ.
func (f *FSMMatrix) StateCounts(i int) (counts [NumStates]int, v int) {
	for s := range f.Planes {
		counts[s] = f.Planes[s].DerivedCount(i)
		if counts[s] > 0 {
			v++
		}
	}
	return counts, v
}

// FSMResult holds the multi-allelic LD outputs: Zaykin's T statistic
// (Eq. 6) and the underlying Σ r² per pair.
type FSMResult struct {
	SNPs    int
	Samples int
	// T is the coefficient-based statistic T_ij of Eq. 6, row-major,
	// both triangles filled.
	T []float64
	// SumR2 is Σ_{sᵢ,sⱼ∈S} r²(sᵢ,sⱼ) per pair.
	SumR2 []float64
	// States is vᵢ, the number of observed states per SNP.
	States []int
}

// FSMLD computes multi-allelic LD between all SNP pairs under the finite
// sites model. Per Section VII it is the 16-GEMM generalization of the ISM
// kernel: one blocked GEMM per ordered pair of nucleotide planes, plus one
// masked pass for the per-pair valid counts v_ij. Following Zaykin et al.
// (2008) as cited by the paper:
//
//	T_ij = ((vᵢ−1)(vⱼ−1)·v_ij)/(vᵢ·vⱼ) · Σ_{sᵢ,sⱼ} r²(sᵢ,sⱼ)
//
// where r²(a,b) is Eq. 2 applied to the state-pair frequencies over the
// jointly valid samples.
func FSMLD(f *FSMMatrix, opt Options) (*FSMResult, error) {
	n := f.SNPs
	res := &FSMResult{
		SNPs: n, Samples: f.Samples,
		T:     make([]float64, n*n),
		SumR2: make([]float64, n*n),
		States: func() []int {
			v := make([]int, n)
			for i := range v {
				_, v[i] = f.StateCounts(i)
			}
			return v
		}(),
	}
	if n == 0 {
		return res, nil
	}

	// Per-pair valid counts v_ij = popcount(validᵢ & validⱼ): one GEMM on
	// the validity planes.
	valid := f.ValidMask()
	vij := make([]uint32, n*n)
	if err := blis.Syrk(opt.Blis, &valid.Matrix, vij, n, true); err != nil {
		return nil, err
	}

	// Per-pair, per-state-pair joint counts: 16 GEMMs. Marginal counts of
	// state a at SNP i *restricted to samples valid at SNP j* are needed
	// for correct per-pair frequencies; they equal the joint counts summed
	// over the partner's states, so no extra GEMMs are required.
	joint := make([][]uint32, NumStates*NumStates)
	for a := 0; a < NumStates; a++ {
		for b := 0; b < NumStates; b++ {
			c := make([]uint32, n*n)
			if err := blis.Gemm(opt.Blis, f.Planes[a], f.Planes[b], c, n); err != nil {
				return nil, err
			}
			joint[a*NumStates+b] = c
		}
	}

	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			idx := i*n + j
			nv := float64(vij[idx])
			if nv == 0 {
				continue
			}
			var margI, margJ [NumStates]float64
			for a := 0; a < NumStates; a++ {
				for b := 0; b < NumStates; b++ {
					jc := float64(joint[a*NumStates+b][idx])
					margI[a] += jc
					margJ[b] += jc
				}
			}
			var sum float64
			for a := 0; a < NumStates; a++ {
				pa := margI[a] / nv
				if pa <= 0 || pa >= 1 {
					continue
				}
				for b := 0; b < NumStates; b++ {
					pb := margJ[b] / nv
					if pb <= 0 || pb >= 1 {
						continue
					}
					pab := float64(joint[a*NumStates+b][idx]) / nv
					d := pab - pa*pb
					sum += d * d / (pa * (1 - pa) * pb * (1 - pb))
				}
			}
			res.SumR2[idx] = sum
			vi, vj := float64(res.States[i]), float64(res.States[j])
			if vi > 0 && vj > 0 {
				res.T[idx] = (vi - 1) * (vj - 1) * nv / (vi * vj) * sum
			}
			res.SumR2[j*n+i] = res.SumR2[idx]
			res.T[j*n+i] = res.T[idx]
		}
	}
	return res, nil
}
