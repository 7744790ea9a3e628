package main

import (
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldgemm/internal/harness"
	"ldgemm/internal/popcount"
)

// hostBlock records where a set of numbers was taken. A number without
// its host does not count (ROADMAP item 1).
type hostBlock struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPU         string   `json:"cpu"`
	CPUFeatures []string `json:"cpu_features"`
	VectorName  string   `json:"popcount_vector"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"git_commit"`
	Seed        int64    `json:"seed"`
	Scale       int      `json:"scale"`
	// Both calibrated single-core peaks, (AND, POPCNT, ADD) word triples/s.
	ScalarPeak float64 `json:"scalar_triples_per_s"`
	EnginePeak float64 `json:"engine_triples_per_s"`
	EngineName string  `json:"engine"`
}

// calibrate is how long each peak calibration runs. A peak is the best
// window seen, so a longer run only steadies it.
const calibrate = 250 * time.Millisecond

// popFeatures are the CPU flags the popcount tiers key on.
var popFeatures = []string{"popcnt", "avx2", "bmi2", "avx512f", "avx512bw", "avx512_vpopcntdq"}

func readHost(seed int64, scale int) hostBlock {
	h := hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		VectorName: popcount.VectorName(), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Scale: scale, CPU: "unknown",
	}
	// The commit is stamped into the binary when it was built inside a
	// git work tree; the driver's checkouts are not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			key, val, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(key) {
			case "model name":
				h.CPU = strings.TrimSpace(val)
			case "flags":
				have := make(map[string]bool)
				for _, f := range strings.Fields(val) {
					have[f] = true
				}
				for _, f := range popFeatures {
					if have[f] {
						h.CPUFeatures = append(h.CPUFeatures, f)
					}
				}
			}
			if h.CPU != "unknown" && h.CPUFeatures != nil {
				break
			}
		}
	}
	h.ScalarPeak = harness.CalibratePeak(calibrate)
	h.EnginePeak, h.EngineName = calibrateEngine(calibrate)
	return h
}

var engineSink int

// calibrateEngine measures the batched AND-count engine the driver
// dispatches at kw ≥ 32 on L1-resident 4 KiB operands: the vector tier
// when the host has one, the Harley–Seal CSA fold otherwise. Like
// harness.CalibratePeak it keeps the best window, because a peak is a
// maximum.
func calibrateEngine(minDuration time.Duration) (float64, string) {
	count, name := popcount.AndCountCSA, "csa"
	if popcount.HasVector() {
		count, name = popcount.AndCountVector, "vector-"+popcount.VectorName()
	}
	const words = 512 // 4 KiB
	a, b := make([]uint64, words), make([]uint64, words)
	for i := range a {
		a[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
		b[i] = 0xbf58476d1ce4e5b9 * uint64(i+3)
	}
	const reps = 2048
	best := 0.0
	for elapsed := time.Duration(0); elapsed < minDuration; {
		start := time.Now()
		for r := 0; r < reps; r++ {
			engineSink += count(a, b)
		}
		d := time.Since(start)
		elapsed += d
		best = max(best, reps*words/d.Seconds())
	}
	return best, name
}

// enginePeakFor returns the calibrated single-core rate of the engine a
// driver call reported in blis.ReadStats().Popcount.
func (h hostBlock) enginePeakFor(dispatched string) float64 {
	if dispatched == "scalar" || dispatched == "" {
		return h.ScalarPeak
	}
	return h.EnginePeak
}

var spinSink atomic.Uint64

// spin runs a register-resident AND+POPCNT+ADD loop on the calling
// goroutine for d, in stretches, and returns the best stretch's rate in
// triples per second. The best stretch is the host's speed; the others
// lost time to whatever else the process was doing (a collection, say).
// It is the benchmark's own plain-Go loop: no change to the repository
// can move it, and unlike harness.CalibratePeak it may run on several
// goroutines at once.
func spin(d, stretch time.Duration) float64 {
	const batch = 1 << 12
	a, b := uint64(0x9e3779b97f4a7c15), uint64(0xbf58476d1ce4e5b9)
	var s0, s1, s2, s3 uint64
	best := 0.0
	for start := time.Now(); time.Since(start) < d; {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < stretch {
			for i := 0; i < batch; i++ {
				s0 += uint64(bits.OnesCount64(a & b))
				s1 += uint64(bits.OnesCount64(a &^ b))
				s2 += uint64(bits.OnesCount64(a & (b >> 1)))
				s3 += uint64(bits.OnesCount64((a >> 1) & b))
				a = bits.RotateLeft64(a, 1)
				b = bits.RotateLeft64(b, 3)
			}
			n += 4 * batch
		}
		best = max(best, float64(n)/time.Since(t0).Seconds())
	}
	spinSink.Add(s0 + s1 + s2 + s3)
	return best
}

// spinAll runs spin on every thread at once and returns each one's rate.
func spinAll(threads int, d, stretch time.Duration) []float64 {
	rates := make([]float64, threads)
	var wg sync.WaitGroup
	for t := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[t] = spin(d, stretch)
		}()
	}
	wg.Wait()
	return rates
}

// The build host is a small shared guest whose speed moves by 20–30 % for
// minutes at a time, and the spin loop moves with it (correlation 0.85–0.9
// with a compute pass over 10 s medians). Every window therefore samples
// the host's speed between its operations, and the end-to-end times and
// rates are reported as they would read on a host whose spin rate is
// nominalSpeed: time × speed ÷ nominalSpeed, rate × nominalSpeed ÷ speed.
const (
	nominalSpeed = 1e9 // triples per second per core
	speedSample  = 4 * time.Millisecond
	speedStretch = time.Millisecond
)

// sampleSpeed is one reading of the host's speed: the mean over all
// threads of the best speedStretch each saw within speedSample.
func sampleSpeed(threads int) float64 {
	sum := 0.0
	for _, r := range spinAll(threads, speedSample, speedStretch) {
		sum += r
	}
	return sum / float64(threads)
}
