package blis

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ldgemm/internal/kernel"
)

// TestTuneProfileRoundTrip runs a small tune with persistence and checks
// the written profile loads back into the same configuration on this
// host.
func TestTuneProfileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	res, err := Tune(TuneOptions{
		SNPs: 128, Samples: 2048, Budget: 300 * time.Millisecond,
		ProfilePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(path)
	if err != nil {
		t.Fatalf("loading just-written profile: %v", err)
	}
	if p.Fingerprint != HostFingerprint() {
		t.Fatalf("fingerprint %q, want %q", p.Fingerprint, HostFingerprint())
	}
	cfg, err := p.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kernel.Name != res.Config.Kernel.Name || cfg.Popcount != res.Config.Popcount ||
		cfg.MC != res.Config.MC || cfg.NC != res.Config.NC || cfg.KC != res.Config.KC {
		t.Fatalf("profile config %+v does not round-trip tune winner %+v", cfg, res.Config)
	}

	// A profile written before the tuner dropped its "epilogue" verdict
	// carries that field; it must load to the same configuration.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), "{", `{"epilogue": "fused",`, 1)
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if q, err := LoadProfile(path); err != nil || q != p {
		t.Fatalf("profile with a retired field: %+v, %v; want %+v", q, err, p)
	}
}

// TestTuneProbeLogReportsVariants pins the satellite fix: every probe
// entry must say which kernel variant and popcount engine it measured.
func TestTuneProbeLogReportsVariants(t *testing.T) {
	res, err := Tune(TuneOptions{SNPs: 96, Samples: 2048, Budget: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) != res.Evaluated {
		t.Fatalf("probe log has %d entries for %d evaluations", len(res.Probes), res.Evaluated)
	}
	variants := map[string]bool{}
	for i, pr := range res.Probes {
		if pr.Variant == "" || pr.Popcount == "" || pr.Phase == "" {
			t.Fatalf("probe %d missing identity: %+v", i, pr)
		}
		if pr.TriplesPerSecond <= 0 {
			t.Fatalf("probe %d has no rate: %+v", i, pr)
		}
		variants[pr.Variant] = true
	}
	// The joint phase must have tried both panel layouts.
	var sawRuns, sawScalar bool
	for v := range variants {
		if strings.HasSuffix(v, "-runs") {
			sawRuns = true
		} else {
			sawScalar = true
		}
	}
	if !sawRuns || !sawScalar {
		t.Fatalf("joint phase did not cover both families: %v", variants)
	}
	if res.Variant == "" || res.Popcount == "" {
		t.Fatalf("winner identity missing: %+v", res)
	}
}

// TestLoadProfileCorrupt pins the failure mode: malformed JSON is an
// error (for the caller to log), never a panic, and never a half-parsed
// profile.
func TestLoadProfileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err == nil {
		t.Fatal("corrupt profile loaded without error")
	}
	// Structurally valid JSON with an unknown kernel is also rejected.
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"version":%d,"fingerprint":%q,"kernel":"13x13","popcount":"auto"}`, profileVersion, HostFingerprint())), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err == nil {
		t.Fatal("profile with unknown kernel loaded without error")
	}
}

// TestLoadProfileStaleFingerprint pins that a profile from another host
// (or another format version) is rejected with ErrProfileStale.
func TestLoadProfileStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	p := Profile{
		Fingerprint: "linux/riscv64/cpu64/simd-none/v1",
		Kernel:      "4x4",
		Popcount:    "vector",
		MC:          128, NC: 4096, KC: 256,
	}
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	_, err := LoadProfile(path)
	if !errors.Is(err, ErrProfileStale) {
		t.Fatalf("stale profile error = %v, want ErrProfileStale", err)
	}

	// Same host, wrong version.
	stale := Profile{Fingerprint: HostFingerprint(), Kernel: "4x4", Popcount: "scalar", MC: 1, NC: 1, KC: 1}
	if err := SaveProfile(path, stale); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(raw), fmt.Sprintf(`"version": %d`, profileVersion), `"version": 99`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); !errors.Is(err, ErrProfileStale) {
		t.Fatalf("wrong-version profile error = %v, want ErrProfileStale", err)
	}
}

// TestProfileVectorTileNeedsTheHost pins that a profile naming the vector
// tile converts only where the tile runs: on any other host (here: with
// the tile turned off) Config refuses it, naming the missing feature, so a
// copied profile can never steer a process into an illegal instruction.
func TestProfileVectorTileNeedsTheHost(t *testing.T) {
	p := Profile{Kernel: kernel.AVX512Name, Popcount: "vector", MC: 128, NC: 4096, KC: 256}
	if _, err := kernel.ByName(kernel.AVX512Name); err == nil {
		cfg, err := p.Config()
		if err != nil || cfg.Kernel.Name != kernel.AVX512Name {
			t.Fatalf("tile profile on a tile host: %+v, %v", cfg.Kernel, err)
		}
	}
	defer kernel.DisableVectorTileForTest()()
	if _, err := p.Config(); err == nil || !strings.Contains(err.Error(), "AVX512_VPOPCNTDQ") {
		t.Fatalf("tile profile without the tile: %v", err)
	}
}

// TestSaveProfileAtomic checks the temp+rename write leaves no temp
// litter and an existing profile is replaced, not appended.
func TestSaveProfileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	p := Profile{Kernel: "4x4", Popcount: "auto", MC: 128, NC: 4096, KC: 256}
	for i := 0; i < 2; i++ {
		if err := SaveProfile(path, p); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "tune.json" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
	if _, err := LoadProfile(path); err != nil {
		t.Fatal(err)
	}
}
