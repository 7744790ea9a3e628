// Package seqio reads and writes the file formats the LD toolchain
// consumes and produces: Hudson's ms output (the lingua franca of
// population-genetic simulators, which OmegaPlus also reads), a minimal
// VCF subset, PLINK-style .bed genotype files, tabular .ld results, and a
// compact binary container for bit-packed genomic matrices.
package seqio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ldgemm/internal/bitmat"
)

// MSReplicate is one simulation replicate of an ms-format file.
type MSReplicate struct {
	// Matrix holds the segregating sites (SNP-major bit matrix).
	Matrix *bitmat.Matrix
	// Positions are the relative SNP positions in [0, 1).
	Positions []float64
}

// WriteMS writes replicates in Hudson's ms output format. The header
// command line is synthesized from the first replicate's dimensions.
func WriteMS(w io.Writer, reps []MSReplicate) error {
	bw := bufio.NewWriter(w)
	samples, snps := 0, 0
	if len(reps) > 0 {
		samples, snps = reps[0].Matrix.Samples, reps[0].Matrix.SNPs
	}
	fmt.Fprintf(bw, "ms %d %d -s %d\nldgemm seqio\n", samples, len(reps), snps)
	for _, rep := range reps {
		if len(rep.Positions) != rep.Matrix.SNPs {
			return fmt.Errorf("seqio: %d positions for %d SNPs", len(rep.Positions), rep.Matrix.SNPs)
		}
		fmt.Fprintf(bw, "\n//\nsegsites: %d\n", rep.Matrix.SNPs)
		if rep.Matrix.SNPs > 0 {
			bw.WriteString("positions:")
			for _, p := range rep.Positions {
				fmt.Fprintf(bw, " %.6f", p)
			}
			bw.WriteByte('\n')
			row := make([]byte, rep.Matrix.SNPs)
			for s := 0; s < rep.Matrix.Samples; s++ {
				for i := 0; i < rep.Matrix.SNPs; i++ {
					if rep.Matrix.Bit(i, s) {
						row[i] = '1'
					} else {
						row[i] = '0'
					}
				}
				bw.Write(row)
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// ReadMS parses ms-format output and returns all replicates.
func ReadMS(r io.Reader) ([]MSReplicate, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var reps []MSReplicate
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "//" {
			continue
		}
		rep, err := readMSReplicate(sc)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seqio: reading ms: %w", err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("seqio: no ms replicates found (missing // separator)")
	}
	return reps, nil
}

func readMSReplicate(sc *bufio.Scanner) (MSReplicate, error) {
	var rep MSReplicate
	if !sc.Scan() {
		return rep, fmt.Errorf("seqio: ms replicate truncated before segsites")
	}
	line := strings.TrimSpace(sc.Text())
	if !strings.HasPrefix(line, "segsites:") {
		return rep, fmt.Errorf("seqio: expected 'segsites:', got %q", line)
	}
	segsites, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "segsites:")))
	if err != nil || segsites < 0 {
		return rep, fmt.Errorf("seqio: bad segsites in %q", line)
	}
	if segsites == 0 {
		rep.Matrix = bitmat.New(0, 0)
		return rep, nil
	}
	if !sc.Scan() {
		return rep, fmt.Errorf("seqio: ms replicate truncated before positions")
	}
	line = strings.TrimSpace(sc.Text())
	if !strings.HasPrefix(line, "positions:") {
		return rep, fmt.Errorf("seqio: expected 'positions:', got %q", line)
	}
	fields := strings.Fields(strings.TrimPrefix(line, "positions:"))
	if len(fields) != segsites {
		return rep, fmt.Errorf("seqio: %d positions for %d segsites", len(fields), segsites)
	}
	rep.Positions = make([]float64, segsites)
	for i, f := range fields {
		rep.Positions[i], err = strconv.ParseFloat(f, 64)
		if err != nil {
			return rep, fmt.Errorf("seqio: bad position %q: %w", f, err)
		}
	}
	var rows [][]byte
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			break
		}
		if line == "//" {
			return rep, fmt.Errorf("seqio: replicate separator inside haplotype block")
		}
		if len(line) != segsites {
			return rep, fmt.Errorf("seqio: haplotype row has %d characters, want %d", len(line), segsites)
		}
		row := make([]byte, segsites)
		for i := 0; i < segsites; i++ {
			switch line[i] {
			case '0':
				row[i] = 0
			case '1':
				row[i] = 1
			default:
				return rep, fmt.Errorf("seqio: invalid haplotype character %q", line[i])
			}
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return rep, fmt.Errorf("seqio: replicate has no haplotype rows")
	}
	rep.Matrix, err = bitmat.FromRows(rows)
	return rep, err
}
