// Package harness provides the experiment infrastructure for regenerating
// the paper's tables and figures: host peak calibration, repeatable
// timing, thread sweeps, and paper-style ASCII tables.
//
// The paper expresses kernel performance as a percentage of the machine's
// theoretical LD peak — one (AND, POPCNT, ADD) triple per cycle on its x86
// hosts (Section IV-B). A Go build cannot read cycle counters portably, so
// the harness measures the host's attainable triple rate directly: a
// dependency-free, register-resident loop of exactly those three
// instructions. Kernel performance is then reported as a fraction of that
// calibrated peak, which preserves the paper's quantity of interest (how
// close the blocked kernel gets to what the hardware can issue) without
// knowing the clock frequency. DESIGN.md records this substitution.
package harness

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"time"
)

// calibSink defeats dead-code elimination in the calibration loop.
var calibSink uint64

// calibBatch is the triple count of one calibration pass: long enough
// (milliseconds) that a window reflects sustained rather than burst issue
// rate, short enough that several windows fit in the calibration budget.
const calibBatch = 1 << 22

// CalibratePeak measures the single-core triple rate (AND+POPCNT+ADD per
// 64-bit word) over at least minDuration and returns triples per second.
// This is the denominator for every "% of peak" number the benches print.
//
// The calibration stream is register-resident with eight independent
// accumulator chains: no loads, no bounds checks, nothing but the triple
// itself (plus two rotates per eight triples to keep the inputs live).
// That makes it the attainable issue-rate ceiling of the instruction mix —
// any memory effect the real kernel suffers shows up as a fraction below
// 100%, never above.
func CalibratePeak(minDuration time.Duration) float64 {
	var elapsed time.Duration
	best := 0.0
	// Warm up once (branch predictors, frequency ramp).
	calibSink += calibPass(calibBatch/8, calibSink|1)
	// A peak is a maximum: take the best window so scheduler noise and
	// frequency dips lower individual windows but never the estimate.
	for elapsed < minDuration {
		start := time.Now()
		calibSink += calibPass(calibBatch/8, calibSink|1)
		d := time.Since(start)
		elapsed += d
		if rate := calibBatch / d.Seconds(); rate > best {
			best = rate
		}
	}
	return best
}

// calibPass issues 8·n dependency-free triples from registers. The seed
// parameter prevents constant folding; noinline prevents the whole loop
// from being hoisted or eliminated across calls.
//
//go:noinline
func calibPass(n int, seed uint64) uint64 {
	a0 := seed | 1
	a1 := a0 * 0x9e3779b97f4a7c15
	a2 := a1 * 0x9e3779b97f4a7c15
	a3 := a2 * 0x9e3779b97f4a7c15
	b0 := seed ^ 0xbf58476d1ce4e5b9
	b1 := b0 * 0x94d049bb133111eb
	b2 := b1 * 0x94d049bb133111eb
	b3 := b2 * 0x94d049bb133111eb
	var s0, s1, s2, s3, s4, s5, s6, s7 uint64
	for i := 0; i < n; i++ {
		s0 += uint64(bits.OnesCount64(a0 & b0))
		s1 += uint64(bits.OnesCount64(a1 & b1))
		s2 += uint64(bits.OnesCount64(a2 & b2))
		s3 += uint64(bits.OnesCount64(a3 & b3))
		s4 += uint64(bits.OnesCount64(a0 & b1))
		s5 += uint64(bits.OnesCount64(a1 & b2))
		s6 += uint64(bits.OnesCount64(a2 & b3))
		s7 += uint64(bits.OnesCount64(a3 & b0))
		a0 = bits.RotateLeft64(a0, 1)
		b2 = bits.RotateLeft64(b2, 3)
	}
	return s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// Measurement is one timed run.
type Measurement struct {
	Elapsed time.Duration
	// WordTriples is the number of (AND, POPCNT, ADD) word operations the
	// run performed; PeakFraction relates it to the calibrated peak.
	WordTriples int64
}

// TriplesPerSecond returns the achieved triple rate.
func (m Measurement) TriplesPerSecond() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.WordTriples) / m.Elapsed.Seconds()
}

// PeakFraction returns the achieved fraction of the given peak rate
// (peak is triples/second, typically CalibratePeak() × threads).
func (m Measurement) PeakFraction(peak float64) float64 {
	if peak <= 0 {
		return 0
	}
	return m.TriplesPerSecond() / peak
}

// Time runs fn once and wraps the result with the supplied work count.
func Time(wordTriples int64, fn func() error) (Measurement, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return Measurement{}, err
	}
	return Measurement{Elapsed: time.Since(start), WordTriples: wordTriples}, nil
}

// Best runs fn reps times and keeps the fastest run — the standard HPC
// practice for machine-peak style plots (Figures 3 and 4).
func Best(reps int, wordTriples int64, fn func() error) (Measurement, error) {
	best, err := Interleaved(reps, fn)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{Elapsed: best[0], WordTriples: wordTriples}, nil
}

// Interleaved runs reps rounds of fns, each round running every fn once in
// turn, and returns each fn's fastest run. Taking turns gives the fns the
// same clock: a frequency change or a scheduler blip lands on one round of
// all of them rather than on one fn's block of runs, so the ratio of two
// fns' times holds.
func Interleaved(reps int, fns ...func() error) ([]time.Duration, error) {
	if reps < 1 {
		return nil, fmt.Errorf("harness: reps must be positive")
	}
	best := make([]time.Duration, len(fns))
	for r := 0; r < reps; r++ {
		for i, fn := range fns {
			start := time.Now()
			if err := fn(); err != nil {
				return nil, err
			}
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best, nil
}

// Table renders a paper-style ASCII table: a header row, a separator, and
// data rows, all pipe-delimited with per-column alignment.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row; values are used as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Headers) {
			return fmt.Errorf("harness: row has %d cells, want %d", len(row), len(t.Headers))
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(fmt.Sprintf("%*s", widths[i], c))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+3*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSV writes the table as comma-separated values (for plotting).
func (t *Table) CSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Headers, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		if len(row) != len(t.Headers) {
			return fmt.Errorf("harness: row has %d cells, want %d", len(row), len(t.Headers))
		}
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// F formats a float with the given decimals — a small helper that keeps
// bench table code terse.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}
