package blis

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ldgemm/internal/kernel"
	"ldgemm/internal/popcount"
)

// Persistent tune profiles. Tune is too slow to run at every process
// start, so its winner can be saved to a small per-host JSON file and
// auto-loaded by the serving binaries. A profile is only valid on the
// hardware it was measured on: it embeds a host fingerprint (OS, arch,
// CPU count, SIMD tier, format version) and LoadProfile rejects a
// mismatch with ErrProfileStale — a stale profile is ignored, never
// misapplied.

// profileVersion is bumped whenever the profile semantics change in a
// way that invalidates old measurements (e.g. a new kernel family).
// 2: the search starts from the host default, which on AVX-512 VPOPCNTDQ
// hosts is the vector tile — a version-1 winner never raced it.
const profileVersion = 2

// ErrProfileStale reports a structurally valid profile measured on a
// different host or by an incompatible version; callers fall back to
// defaults.
var ErrProfileStale = errors.New("blis: tune profile is stale for this host")

// Profile is the on-disk form of a tuned configuration.
type Profile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	CreatedAt   string `json:"created_at,omitempty"`
	// Kernel and Popcount name the winning micro-kernel shape and
	// popcount strategy (kernel.ByName / ParsePopcount forms).
	Kernel   string `json:"kernel"`
	Popcount string `json:"popcount"`
	MC       int    `json:"mc"`
	NC       int    `json:"nc"`
	KC       int    `json:"kc"`
	// Threads and ChunkTiles are recorded only when the tuner's threaded
	// phase beat the single-core winner (0 otherwise).
	Threads    int `json:"threads,omitempty"`
	ChunkTiles int `json:"chunk_tiles,omitempty"`
	// TriplesPerSecond is the winner's probe throughput, for humans
	// diffing profiles.
	TriplesPerSecond float64 `json:"triples_per_second,omitempty"`
}

// HostFingerprint identifies the hardware/runtime a profile was measured
// on. Geometry (CPU count) and the SIMD tier are part of it: a profile
// tuned with AVX-512 kernels must not steer a host without them.
func HostFingerprint() string {
	return fmt.Sprintf("%s/%s/cpu%d/simd-%s/v%d",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), popcount.VectorName(), profileVersion)
}

// Config converts a loaded profile into a driver configuration. A
// profile naming a kernel this host cannot run (kernel.AVX512Name without
// AVX-512 VPOPCNTDQ) is refused here, by kernel.ByName, whatever its
// fingerprint says.
func (p Profile) Config() (Config, error) {
	k, err := kernel.ByName(p.Kernel)
	if err != nil {
		return Config{}, fmt.Errorf("blis: profile kernel: %w", err)
	}
	strat, err := ParsePopcount(p.Popcount)
	if err != nil {
		return Config{}, fmt.Errorf("blis: profile popcount: %w", err)
	}
	cfg := Config{
		MC: p.MC, NC: p.NC, KC: p.KC,
		Kernel:     k,
		Popcount:   strat,
		Threads:    p.Threads,
		ChunkTiles: p.ChunkTiles,
	}
	if _, err := cfg.normalize(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveProfile writes the profile atomically (temp file + rename), so a
// crash mid-write never leaves a truncated profile for the next startup
// to trip over.
func SaveProfile(path string, p Profile) error {
	p.Version = profileVersion
	if p.Fingerprint == "" {
		p.Fingerprint = HostFingerprint()
	}
	if p.CreatedAt == "" {
		p.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tune-profile-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadProfile reads and validates a profile. A file measured on another
// host or by an incompatible version returns ErrProfileStale (wrapped
// with the fingerprints); malformed JSON or an unknown kernel/strategy
// returns the underlying error. Either way callers are expected to log
// and fall back to defaults rather than fail startup.
func LoadProfile(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, fmt.Errorf("blis: parsing tune profile %s: %w", path, err)
	}
	if want := HostFingerprint(); p.Version != profileVersion || p.Fingerprint != want {
		return Profile{}, fmt.Errorf("%w: profile %q, host %q", ErrProfileStale, p.Fingerprint, want)
	}
	if _, err := p.Config(); err != nil {
		return Profile{}, err
	}
	return p, nil
}
