package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesSpec holds BENCHMARK.json to the tables in
// spec.go and to the limits of its format.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go, 2 to 8 allowed", n, len(workloads))
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go, 1 to 16 allowed", n, len(endToEnd))
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go, 1 to 128 allowed", n, len(perLayer))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !strings.Contains(m.Name, ".") || s.Moves == "" {
			t.Errorf("per-layer metric %s must be layer.metric and say what it moves", m.Name)
		}
	}
}

// TestSmoke runs every workload at 1/32 of its size, untraced and traced,
// and checks that every metric BENCHMARK.json names is emitted, that
// nothing fails a correctness gate, and that the lot takes a few seconds.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	start := time.Now()
	e := &env{seed: 7, scale: 32, threads: runtime.GOMAXPROCS(0), tmp: filepath.Join(t.TempDir(), "w"), host: readHost(7, 32)}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, e, 0.3, traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := len(bf.EndToEnd)
			if traced {
				want = len(bf.PerLayer)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s traced=%t: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(rep.Metrics), want)
			}
			check := func(name, unit string, nonzero bool) {
				m, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", w.Name, traced, name)
					return
				}
				if m.Unit != unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, name, m.Unit, unit)
				}
				switch v := m.Value.(type) {
				case float64:
					if math.IsNaN(v) || math.IsInf(v, 0) || (nonzero && v <= 0) {
						t.Errorf("%s: metric %s = %v", w.Name, name, v)
					}
				case string:
					if nonzero || v != "not_measured" {
						t.Errorf("%s: metric %s = %q", w.Name, name, v)
					}
				}
			}
			if traced {
				for _, m := range bf.PerLayer {
					check(m.Name, m.Unit, false)
				}
				if rep.tracer.count() == 0 {
					t.Errorf("%s: the traced run recorded no span", w.Name)
				}
			} else {
				for _, m := range bf.EndToEnd {
					check(m.Name, m.Unit, true)
				}
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run took %v; it is meant to take a few seconds", d)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7}, [3]float64{1, 7, 10}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 9, 2, 4, 7}, [3]float64{3, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus its children's.
func TestSelfTime(t *testing.T) {
	tr := newTracer("w")
	p := tr.start("parent", "core", 0, 1, false)
	c := tr.start("child", "blis", p, 1, true)
	tr.end(c, nil)
	tr.end(p, nil)
	tr.spans[0].StartNS, tr.spans[0].EndNS = 0, 10e9
	tr.spans[1].StartNS, tr.spans[1].EndNS = 10e9, 14e9 // a replayed child runs after its parent
	self := tr.selfSeconds()
	if self["parent"][0] != 6 || self["child"][0] != 4 {
		t.Errorf("self times %v, want parent 6 and child 4", self)
	}
	var off *tracer
	if id := off.start("x", "y", 0, 0, false); id != 0 || off.count() != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// TestCompareVerdicts: a spread wider than the bound is unresolved, not
// unchanged, and a median worse by more than the bound fails.
func TestCompareVerdicts(t *testing.T) {
	set := func(throughputs ...float64) string {
		rs := runSet{}
		for i, v := range throughputs {
			one := oneRun{Seed: int64(i)}
			for _, w := range workloads {
				rep := &report{Workload: w.Name, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
				for _, s := range endToEnd {
					rep.Metrics[s.Name] = metric{Value: 1.0, Unit: s.Unit}
				}
				rep.Metrics["throughput"] = metric{Value: v, Unit: "1/s"}
				one.Workloads = append(one.Workloads, rep)
			}
			rs.Runs = append(rs.Runs, one)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSONFile(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := set(100, 101, 99, 100, 100)
	if err := compareFiles(steady, set(99, 100, 101, 100, 99)); err != nil {
		t.Errorf("two steady sets of the same code: %v", err)
	}
	if err := compareFiles(steady, set(60, 61, 59, 60, 60)); err == nil {
		t.Error("a 40% throughput loss passed")
	}
	if err := compareFiles(steady, set(60, 130, 95, 70, 120)); err != nil {
		t.Errorf("a noisy set must read unresolved, not regressed: %v", err)
	}
}
