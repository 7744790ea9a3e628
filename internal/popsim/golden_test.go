package popsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ldgemm/internal/bitmat"
)

// The golden tests pin the SHA-256 of every generated word, so any change
// to the draw order or to the fill of either generator shows up as a
// changed digest: every cohort the ledger, the benchmark and the test
// fixtures build is a function of these bits.

// ledgerConfig is the benchmark ledger's cohort configuration.
var ledgerConfig = MosaicConfig{Seed: 1, Founders: 16, SwitchRate: 0.005}

type goldenCase struct {
	name          string
	snps, samples int
	cfg           MosaicConfig
	digest        string
}

// digestOf hashes the dimensions and the data words, little-endian.
func digestOf(m *bitmat.Matrix) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []int{m.SNPs, m.Samples} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, w := range m.Data {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPadding reads the last word of every SNP directly: the bits past
// the last sample must be zero.
func checkPadding(t *testing.T, m *bitmat.Matrix) {
	t.Helper()
	tail := m.Samples % 64
	if tail == 0 || m.SNPs == 0 {
		return
	}
	pad := ^uint64(0) << tail
	for i := 0; i < m.SNPs; i++ {
		if w := m.Data[i*m.Words+m.Words-1]; w&pad != 0 {
			t.Fatalf("SNP %d: padding bits %#x set in last word", i, w&pad)
		}
	}
}

var mosaicGolden = []goldenCase{
	{"ledger-1024x4096", 1024, 4096, ledgerConfig, "6b7f8a5147bc9453220d76e3425218b8e861a08e37ecee0156c43986e8bffd06"},
	{"defaults-300x777", 300, 777, MosaicConfig{Seed: 3}, "38329e4086817e28809d04ad2d76302b2a0d2a7e238d50c61928e5dcc15cb26f"},
	{"founders-2", 257, 130, MosaicConfig{Seed: 4, Founders: 2}, "45c229cc17fc0b70623cac0e7b9e394cd2057686793c4a8a040b71f625b09808"},
	{"founders-70", 257, 130, MosaicConfig{Seed: 5, Founders: 70, SwitchRate: 0.05}, "8585de7aca7f7484ddbd416f18bece0062219d3721b5ad427e20a88208cbf4ab"},
	{"mutation-1", 97, 70, MosaicConfig{Seed: 6, MutationRate: 1}, "c06544b99b0ca0f1989ef219dc8b3bea10df3997dc2d891e2427b9321ee8c62c"},
	{"samples-1", 64, 1, MosaicConfig{Seed: 7}, "ef367a335411b17b0a46671f7c252d677b8070d71488235843dfc713f04ffdf2"},
	{"samples-63", 200, 63, MosaicConfig{Seed: 8}, "57c0a113c08a2dd6e3689674926b1d06ee7b49864582ca27e003f05d97936a39"},
	{"samples-64", 200, 64, MosaicConfig{Seed: 9}, "77f31eaa89a83ba5e5200284030d21b43d8bcf0e2776568c3d41939de29d55ed"},
	{"samples-65", 200, 65, MosaicConfig{Seed: 10}, "e94a26c8a9963aa3ff09beaaf1a58a09d221a2cf32e76c2c7ee0a2bad66636ea"},
	{"samples-129", 200, 129, MosaicConfig{Seed: 11, SwitchRate: 0.2}, "3e826228a9710aee87e76c401008389694f249f632bdda36a80c8014a24781e9"},
	{"snps-0", 0, 100, MosaicConfig{Seed: 12}, "49fc9f11711db6252e1fb6a68e1971e41e547b01a1cb67b651b8febf0297717a"},
	{"switch-rate-1e-17", 90, 70, MosaicConfig{Seed: 13, SwitchRate: 1e-17}, "a2a88a720109f851d2319cd989e6c4939946770c3e3aa03f676159e5c0eae0e2"},
}

var streamGolden = []goldenCase{
	{"ledger-300x1000", 300, 1000, ledgerConfig, "a971043f33a397d5035321f7edac488205da946b1e650add0c381151f98a30eb"},
	{"defaults-301x53", 301, 53, MosaicConfig{Seed: 17}, "2419f5adcb2fa57fba89d3e141428e4c27342b26654b35caaa4dc2e3318ce8c2"},
	{"founders-2", 150, 130, MosaicConfig{Seed: 4, Founders: 2}, "eeb86fc3cb6d445ca43dd5c186b5800e60b98963ef6f44387b0e27fde03aae2a"},
	{"founders-70", 150, 130, MosaicConfig{Seed: 5, Founders: 70, SwitchRate: 0.05}, "fd23aef83b036c1684e19fb4efad33c0dc5cc9b6d99fae3099906fa510622691"},
	{"mutation-1", 97, 70, MosaicConfig{Seed: 6, MutationRate: 1}, "7ce66ec9486ad834b802247032903aa623fa1f9695bdb90080750d58238953b3"},
	{"samples-1", 64, 1, MosaicConfig{Seed: 7}, "fb108afcdc6df05c54fdef9a2a0ddec487efbf74a79d18abb7501e505b7af05c"},
	{"samples-63", 120, 63, MosaicConfig{Seed: 8}, "e82440d5563e79dac2e3b4f94a1b4887b83689b2f29bf954bdc189201e8f767d"},
	{"samples-64", 120, 64, MosaicConfig{Seed: 9}, "0b2513dc3add6593dde947430e9d883a12b2169d77fce6b570e935babff22776"},
	{"samples-65", 120, 65, MosaicConfig{Seed: 10}, "3c7e223f45d8f578292365354188c6243efdac37243e248faca514d7057b309c"},
	{"samples-129", 120, 129, MosaicConfig{Seed: 11, SwitchRate: 0.2}, "af1fd2778e236e997ed19558c8f591db4d1a478dcf5a51b214d402bdac823bc9"},
	{"snps-0", 0, 100, MosaicConfig{Seed: 12}, "49fc9f11711db6252e1fb6a68e1971e41e547b01a1cb67b651b8febf0297717a"},
	{"switch-rate-1e-17", 90, 70, MosaicConfig{Seed: 13, SwitchRate: 1e-17}, "c7a4a7bf33955b6129aa38faa2591e4575bf76e5a5e67e235b44c03dfffa756b"},
}

// TestMosaicGolden pins Mosaic's output bit for bit.
func TestMosaicGolden(t *testing.T) {
	for _, c := range mosaicGolden {
		t.Run(c.name, func(t *testing.T) {
			m, err := Mosaic(c.snps, c.samples, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkPadding(t, m)
			if got := digestOf(m); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}

// TestMosaicStreamGolden pins MosaicStream's output bit for bit, read
// through windows of 1, 7 and 1000 SNPs.
func TestMosaicStreamGolden(t *testing.T) {
	for _, c := range streamGolden {
		for _, window := range []int{1, 7, 1000} {
			t.Run(fmt.Sprintf("%s/window=%d", c.name, window), func(t *testing.T) {
				m := streamAll(t, c.snps, c.samples, c.cfg, window)
				checkPadding(t, m)
				if got := digestOf(m); got != c.digest {
					t.Errorf("digest %s, want %s", got, c.digest)
				}
			})
		}
	}
}
