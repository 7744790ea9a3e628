package blis

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
	if cfg.MC != res.Config.MC || cfg.NC != res.Config.NC || cfg.KC != res.Config.KC ||
		cfg.Threads != res.Config.Threads || cfg.ChunkTiles != res.Config.ChunkTiles {
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

// TestTuneProbeLogReportsVariants pins the probe log: one entry per
// evaluation, each naming its phase and rate, and the result naming the
// kernel variant and engine every probe ran — the host default's route at
// the probe's k, as the driver reports it.
func TestTuneProbeLogReportsVariants(t *testing.T) {
	res, err := Tune(TuneOptions{SNPs: 96, Samples: 2048, Budget: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) != res.Evaluated {
		t.Fatalf("probe log has %d entries for %d evaluations", len(res.Probes), res.Evaluated)
	}
	for i, pr := range res.Probes {
		if pr.Phase == "" || pr.TriplesPerSecond <= 0 {
			t.Fatalf("probe %d missing phase or rate: %+v", i, pr)
		}
	}
	if err := Syrk(res.Config, probeMatrix(96, 2048), make([]uint32, 96*96), 96, false); err != nil {
		t.Fatal(err)
	}
	if s := ReadStats(); res.Variant != s.Variant || res.Popcount != s.Popcount {
		t.Fatalf("tuner reports %s / %s, the driver ran %s / %s", res.Variant, res.Popcount, s.Variant, s.Popcount)
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
	// Structurally valid JSON with an invalid blocking is also rejected.
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"version":%d,"fingerprint":%q,"mc":-1,"nc":4096,"kc":256}`, profileVersion, HostFingerprint())), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); err == nil {
		t.Fatal("profile with a negative MC loaded without error")
	}
}

// TestLoadProfileStaleFingerprint pins that a profile from another host
// (or another format version) is rejected with ErrProfileStale.
func TestLoadProfileStaleFingerprint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	p := Profile{
		Fingerprint: "linux/riscv64/cpu64/simd-none/v1",
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
	stale := Profile{Fingerprint: HostFingerprint(), MC: 1, NC: 1, KC: 1}
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

// TestLoadProfileVersion2Stale pins the version bump: a profile this host
// wrote before profiles stopped naming a kernel and a popcount strategy is
// stale, not silently half-applied.
func TestLoadProfileVersion2Stale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	v2 := strings.Replace(HostFingerprint(), fmt.Sprintf("/v%d", profileVersion), "/v2", 1)
	body := fmt.Sprintf(`{"version":2,"fingerprint":%q,"kernel":"8x8-avx512","popcount":"vector","mc":128,"nc":4096,"kc":256}`, v2)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(path); !errors.Is(err, ErrProfileStale) {
		t.Fatalf("version-2 profile error = %v, want ErrProfileStale", err)
	}
}

// TestSaveProfileAtomic checks the temp+rename write leaves no temp
// litter and an existing profile is replaced, not appended.
func TestSaveProfileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	p := Profile{MC: 128, NC: 4096, KC: 256}
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
