package seqio

import (
	"path/filepath"

	"ldgemm/internal/bitmat"
)

// LoadMatrix reads a dataset file into a bit matrix. It is the one loader
// of every CLI that takes a dataset path, so a store ldstore builds
// fingerprints identically to the matrix ldserver, ldcalc and omegascan
// load. Gzip content is decompressed transparently (by its
// magic bytes, as OpenMaybeGzip does); the extension left once any ".gz"
// is stripped picks the format: .ms and .txt give the first ms
// replicate, .vcf the VCF's haplotypes, anything else is read as the
// compact binary container.
func LoadMatrix(path string) (*bitmat.Matrix, error) {
	r, closer, err := OpenMaybeGzip(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	base := path
	for filepath.Ext(base) == ".gz" {
		base = base[:len(base)-len(".gz")]
	}
	switch filepath.Ext(base) {
	case ".ms", ".txt":
		reps, err := ReadMS(r)
		if err != nil {
			return nil, err
		}
		return reps[0].Matrix, nil
	case ".vcf":
		v, err := ReadVCF(r)
		if err != nil {
			return nil, err
		}
		return v.Matrix, nil
	default:
		return ReadBinary(r)
	}
}
