package blis

import (
	"math/rand"
	"testing"
	"time"
)

func TestTuneReturnsValidConfig(t *testing.T) {
	res, err := Tune(TuneOptions{SNPs: 128, Samples: 512, Budget: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated < 2 {
		t.Fatalf("only %d configurations evaluated", res.Evaluated)
	}
	if res.TriplesPerSecond <= 0 {
		t.Fatalf("rate %v", res.TriplesPerSecond)
	}
	cfg := res.Config
	if cfg.Kernel.Fn == nil || cfg.MC < 1 || cfg.NC < 1 || cfg.KC < 1 {
		t.Fatalf("invalid tuned config %+v", cfg)
	}
	if cfg.Threads != 0 {
		t.Fatalf("tuned config pins threads: %d", cfg.Threads)
	}
	// The tuned config must still compute correct results.
	rng := rand.New(rand.NewSource(1))
	g := randomMatrix(rng, 60, 300)
	got := make([]uint32, 60*60)
	if err := Syrk(cfg, g, got, 60, true); err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 60*60)
	if err := Reference(g, g, want, 60); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuned config wrong at %d", i)
		}
	}
}

func TestTuneRespectsBudget(t *testing.T) {
	start := time.Now()
	_, err := Tune(TuneOptions{SNPs: 256, Samples: 2048, Budget: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy descent may finish its in-flight measurement; allow slack.
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("tuning took %v with a 100ms budget", el)
	}
}

func TestTuneInvalidOptions(t *testing.T) {
	if _, err := Tune(TuneOptions{SNPs: -1}); err == nil {
		t.Fatal("negative SNPs accepted")
	}
	if _, err := Tune(TuneOptions{Threads: -2}); err == nil {
		t.Fatal("negative threads accepted")
	}
}

// TestTuneProbesAreDistinct pins that the search times no configuration
// twice: the baseline is measured once, after an untimed warm-up, and each
// descent axis skips the value it starts from, so a re-measured default can
// never win against its own cold first run.
func TestTuneProbesAreDistinct(t *testing.T) {
	res, err := Tune(TuneOptions{SNPs: 96, Samples: 256, Budget: 5 * time.Second, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ mc, nc, kc, threads, chunk int }
	seen := map[key]string{}
	phases := map[string]bool{}
	for _, pr := range res.Probes {
		k := key{pr.MC, pr.NC, pr.KC, pr.Threads, pr.ChunkTiles}
		if prev, ok := seen[k]; ok {
			t.Fatalf("%+v measured twice: in %s and in %s", k, prev, pr.Phase)
		}
		seen[k] = pr.Phase
		phases[pr.Phase] = true
	}
	for _, p := range []string{"baseline", "blocking-KC", "blocking-MC", "blocking-NC", "threads"} {
		if !phases[p] {
			t.Fatalf("no probe from phase %s (budget exhausted?): %v", p, phases)
		}
	}
}
