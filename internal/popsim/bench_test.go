package popsim

import "testing"

// BenchmarkMosaic generates the compute_large_k ledger cohort: 1024 SNPs ×
// 65 536 samples at the ledger configuration.
func BenchmarkMosaic(b *testing.B) {
	const snps, samples = 1024, 65536
	for i := 0; i < b.N; i++ {
		if _, err := Mosaic(snps, samples, ledgerConfig); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snps)*samples*float64(b.N)/b.Elapsed().Seconds(), "bits/s")
}

// BenchmarkMosaicStream drains a 16 384-SNP × 2048-sample stream through
// 1024-SNP windows, the shape the out-of-core build cohorts are written in.
func BenchmarkMosaicStream(b *testing.B) {
	const snps, samples, window = 16384, 2048, 1024
	for i := 0; i < b.N; i++ {
		s, err := NewMosaicStream(snps, samples, ledgerConfig)
		if err != nil {
			b.Fatal(err)
		}
		for {
			m, err := s.Next(window)
			if err != nil {
				b.Fatal(err)
			}
			if m == nil {
				break
			}
		}
	}
	b.ReportMetric(float64(snps)*samples*float64(b.N)/b.Elapsed().Seconds(), "bits/s")
}
