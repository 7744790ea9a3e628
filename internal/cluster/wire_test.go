package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
	"ldgemm/internal/server"
)

// wireRequest is one pinned request: GET path, or POST path with the
// seeded vector under bodyKey. plain and stored are the SHA-256 digests
// of the 200 body without and with a dense r² + sparse store loaded, as
// the handlers of commit 9fbb82b produced them; an empty digest means the
// request is not a 200 in that mode. nodeOnly requests name the topology
// in their body and are pinned for the single node alone.
type wireRequest struct {
	path, bodyKey string
	nodeOnly      bool
	plain, stored string
}

var wireRequests = []wireRequest{
	{path: "/healthz",
		plain:  "6489d6d7a33c5d40e18fc61eeb6c34c341279ee61816394dde5189aa4ad8fae5",
		stored: "6489d6d7a33c5d40e18fc61eeb6c34c341279ee61816394dde5189aa4ad8fae5"},
	{path: "/api/info", nodeOnly: true,
		plain:  "5ef39bb8531d7b068a8a27344f85ffef93955fc6c32e9157b197ec89b8696b68",
		stored: "dda773c4e1d2dbe8b131acd3e504b049e0b693e30e0fb8f850884f37067e2bc7"},
	{path: "/api/freq?i=0",
		plain:  "ef780eb17479a59165cb509e6a4c87a193c960f86b364a2b4be8661860958cd0",
		stored: "ef780eb17479a59165cb509e6a4c87a193c960f86b364a2b4be8661860958cd0"},
	{path: "/api/freq?i=200",
		plain:  "f689617ed727bfd432020e868522ed70bc4fb91c26b4a767a0c6e6157e690f67",
		stored: "f689617ed727bfd432020e868522ed70bc4fb91c26b4a767a0c6e6157e690f67"},
	{path: "/api/ld?i=3&j=45",
		plain:  "6cceb9356f6d02a456ca094aa26cfb596078d2bfcc3cfe0c9356cb1136d37316",
		stored: "6cceb9356f6d02a456ca094aa26cfb596078d2bfcc3cfe0c9356cb1136d37316"},
	{path: "/api/ld?i=200&j=17",
		plain:  "cb7651e50e6ecbfb6bc990994db1b2d74b0b18d8e4c1ab8c59d8ceeef0737dd3",
		stored: "cb7651e50e6ecbfb6bc990994db1b2d74b0b18d8e4c1ab8c59d8ceeef0737dd3"},
	{path: "/api/ld?i=130&j=250",
		plain:  "19778ea5d0cb7678692951427862467f6203d32d79776dafe4c62862209f3a5c",
		stored: "19778ea5d0cb7678692951427862467f6203d32d79776dafe4c62862209f3a5c"},
	{path: "/api/ld?i=77&j=77",
		plain:  "1acb71bc4bb7751e0c8cb5a118fa274c72325e5e1199a34d3f92c43c5e424cee",
		stored: "1acb71bc4bb7751e0c8cb5a118fa274c72325e5e1199a34d3f92c43c5e424cee"},
	{path: "/api/ld/region?start=100&end=160",
		plain:  "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda",
		stored: "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda"},
	{path: "/api/ld/region?start=100&end=160&measure=r2",
		plain:  "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda",
		stored: "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda"},
	{path: "/api/ld/region?start=100&end=160&measure=d",
		plain:  "f869d36d3281414f36f7dbbc4c6bccd0437faaf3e0667bba74620a0add15b462",
		stored: "f869d36d3281414f36f7dbbc4c6bccd0437faaf3e0667bba74620a0add15b462"},
	{path: "/api/ld/region?start=100&end=160&measure=dprime",
		plain:  "e82f8c5cbaae4430af7e3c37b91e1c4bdabaf981b421c15c6ab2c33fbc7ab03d",
		stored: "e82f8c5cbaae4430af7e3c37b91e1c4bdabaf981b421c15c6ab2c33fbc7ab03d"},
	{path: "/api/ld/region?start=0&end=64",
		plain:  "eb09060ad775d8023ceb171bd6ed06a31f4476e884948c1c2e8b8e6a769dd0a9",
		stored: "eb09060ad775d8023ceb171bd6ed06a31f4476e884948c1c2e8b8e6a769dd0a9"},
	{path: "/api/ld/region?start=150&end=256&measure=r2",
		plain:  "961e3324a5353c386f63e63499a29684e9794d28d64308b48795d9fad4474ea0",
		stored: "961e3324a5353c386f63e63499a29684e9794d28d64308b48795d9fad4474ea0"},
	{path: "/api/ld/region?start=0&end=128&measure=r2",
		plain:  "40ecfdc47a899caa8b1af7185361213bd32ccff297a3a82bf60b716ceeab7b20",
		stored: "40ecfdc47a899caa8b1af7185361213bd32ccff297a3a82bf60b716ceeab7b20"},
	{path: "/api/ld/region?start=100&end=160&rows=110:150",
		plain:  "45d6dc381707643f918c55c465ae668db2a1d28e16c50deb06a9d6113260788b",
		stored: "45d6dc381707643f918c55c465ae668db2a1d28e16c50deb06a9d6113260788b"},
	{path: "/api/ld/region?start=100&end=160&rows=100:160",
		plain:  "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda",
		stored: "1290f509622eae3b36f088786afcd7f56851a343f022b25663411f7791367eda"},
	{path: "/api/ld/region?start=100&end=160&rows=100:120&measure=d",
		plain:  "b6a6ddbb1aa0ca82be6aab4b6c2ae7341cfec209c9a026f29af38b0c713b5c32",
		stored: "b6a6ddbb1aa0ca82be6aab4b6c2ae7341cfec209c9a026f29af38b0c713b5c32"},
	{path: "/api/ld/region?start=100&end=160&rows=140:160&measure=dprime",
		plain:  "80c544f165e7fe8e1701cf9d75341f32dd12580446eda007f638f803c72f4cc9",
		stored: "80c544f165e7fe8e1701cf9d75341f32dd12580446eda007f638f803c72f4cc9"},
	{path: "/api/ld/top",
		plain:  "08b75b3e23a7d64ed8653f75c07849e0599b550897a1967a4b222f41923ec574",
		stored: "90a23712f420fede33edfe5138f11d9b144dba896ae2f26177e888b470659aa8"},
	{path: "/api/ld/top?k=1",
		plain:  "a8dd25f8b53376bb9dc63ce0487d82fbac169d54e6ed0f3f6205faee4bb7f7c8",
		stored: "2143b4af9b2ffd75169037f7f0afed7bfa982d1b9a98fc267d745b14acd9049a"},
	{path: "/api/ld/top?k=50",
		plain:  "8bc3d930bb42b5ea1c24bef21da89b49d754c844df245c533d342318053d050a",
		stored: "ea6c33dfe2b030b747a3566ba56ac1586fc69f3a6d543931ae99f3fbdbc06493"},
	{path: "/api/ld/top?k=10&rows=0:256",
		plain:  "3568454b72286d5eaa09d5c8efcb54f3cbc509cd5870c3cd7701bfdd3e411fcf",
		stored: "367037d64920d17c5e6b9821ddc871989b302c2e0afc3399dd50f955008fbfdf"},
	{path: "/api/ld/top?k=10&rows=64:192",
		plain:  "e94c70843729ebf4a8efc9b790db6124a299e0af32dbf08af3b2282c0b19811e",
		stored: "2a8744ee058df8392de675980c3e2c5557e270c04ef9c0b3d1380e093aa2587b"},
	{path: "/api/ld/top?k=10&rows=0:100",
		plain:  "e0da54ebab392b4943bec486a1b8bcc754cfcd83d0c4758450ef0d4e8e5d2fc2",
		stored: "96860cdcfc32cb167f61b5a5232783aff13deec2612a04e48f255dccf95dadd9"},
	{path: "/api/ld/top?k=10&rows=200:256",
		plain:  "fa294fb76c0eda15642d1e6f6cbea5fdadbaf6186942b40dcd565d44fa51dc89",
		stored: "d57cbe22ec33211cad40ca01ad2578b142046bc5d5a3cd692465d9446f45fb1a"},
	{path: "/api/prune",
		plain:  "4c1d135b473fa0b1be847c0a52de5b5a05f9aedfec0125f86dc36f6405d05e22",
		stored: "4c1d135b473fa0b1be847c0a52de5b5a05f9aedfec0125f86dc36f6405d05e22"},
	{path: "/api/prune?window=20&step=5&r2=0.5",
		plain:  "75c440b7481f5376fb00dbf6d5719ba824f6b8b777d018af62f7c6bc85f71ce1",
		stored: "75c440b7481f5376fb00dbf6d5719ba824f6b8b777d018af62f7c6bc85f71ce1"},
	{path: "/api/blocks",
		plain:  "827ac60520cf0b338fd62c16094c389b6642339b1d3bdef58d2b2cd44f31f4f9",
		stored: "827ac60520cf0b338fd62c16094c389b6642339b1d3bdef58d2b2cd44f31f4f9"},
	{path: "/api/blocks?dprime=0.7&frac=0.8",
		plain:  "710fedb06aa249cbd766e945941eafaf62ece0fee74a267131d8079c1d06501b",
		stored: "710fedb06aa249cbd766e945941eafaf62ece0fee74a267131d8079c1d06501b"},
	{path: "/api/omega",
		plain:  "9383d12d5217162b7cf89e6f731f73a761507c00fb5823fff7bded3a1ab825fc",
		stored: "9383d12d5217162b7cf89e6f731f73a761507c00fb5823fff7bded3a1ab825fc"},
	{path: "/api/omega?grid=10&min_each=2&max_each=20",
		plain:  "ad03bd69cef66ea2df3cf1b8af2700f3ba137724c94904df28a0fd6eb8aad44e",
		stored: "ad03bd69cef66ea2df3cf1b8af2700f3ba137724c94904df28a0fd6eb8aad44e"},
	{path: "/api/sparse/matvec", bodyKey: "x",
		stored: "6a411236af9cb3ba2935597b6c002db600d79c592ecfc85048f8da09e95fd2a6"},
	{path: "/api/sparse/matvec?rows=0:256", bodyKey: "x",
		stored: "6a411236af9cb3ba2935597b6c002db600d79c592ecfc85048f8da09e95fd2a6"},
	{path: "/api/sparse/matvec?rows=64:192", bodyKey: "x",
		stored: "3bf579433d9f59941b56ce8bee66e5fe91bde8d49b3dac68515cfcb3c8fc0992"},
	{path: "/api/sparse/matvec?rows=10:20", bodyKey: "x",
		stored: "43e30d486de5bd26e5932cd810435ee021f6f269e3007629d1415d661e59cd83"},
	{path: "/api/sparse/score", bodyKey: "z",
		stored: "82112b2ef20355d431db30d7937480fcc9546ee2e7b56ab25d42a12caa238eb4"},
	{path: "/api/sparse/score?rows=64:192", bodyKey: "z",
		stored: "82248f892483ef5dba98a9815cd747c529738eba594f3f8956aec29a1c3a1535"},
	{path: "/api/sparse/score?rows=200:256", bodyKey: "z",
		stored: "cc263d4933142be13e20c97c0e7c16e84ea4a63cc189b28639fe43a525e87b53"},
}

// wireNodes returns the constructor of the wire dataset's nodes: every node
// it makes serves the same matrix over the same (optional) stores, owning
// rows [lo, hi) or, for 0:0, unsharded.
func wireNodes(t testing.TB, stored bool) func(lo, hi int) *server.Server {
	t.Helper()
	matrix := func() *bitmat.Matrix {
		g, err := popsim.Mosaic(256, 128, popsim.MosaicConfig{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	dir := t.TempDir()
	dense, sparse := filepath.Join(dir, "w.ldts"), filepath.Join(dir, "w.ldss")
	if stored {
		if _, err := ldstore.BuildFile(dense, matrix(), ldstore.BuildOptions{TileSize: 32}); err != nil {
			t.Fatal(err)
		}
		if _, err := ldsparse.BuildFile(sparse, matrix(), ldsparse.BuildOptions{TileSize: 32, Threshold: 0.02}); err != nil {
			t.Fatal(err)
		}
	}
	return func(lo, hi int) *server.Server {
		cfg := server.Config{MaxRegionSNPs: 128, MaxTopK: 100, Threads: 2, ShardStart: lo, ShardEnd: hi}
		if stored {
			st, err := ldstore.Open(dense, ldstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			sp, err := ldsparse.Open(sparse, ldsparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sp.Close() })
			cfg.Store, cfg.Sparse = st, sp
		}
		return server.New(matrix(), cfg)
	}
}

// wireTopology is one dataset served twice: by a single node and by a
// 2-strip cluster, every node over the same (optional) stores.
func wireTopology(t *testing.T, stored bool) (single, cluster *httptest.Server) {
	t.Helper()
	nodes := wireNodes(t, stored)
	node := func(lo, hi int) *httptest.Server {
		ts := httptest.NewServer(nodes(lo, hi))
		t.Cleanup(ts.Close)
		return ts
	}
	return node(0, 0), newTestCluster(t, fastConfig(), node(0, 128).URL, node(128, 256).URL)
}

// wireVector is the vector every pinned sparse request posts.
func wireVector() []float64 {
	vec := make([]float64, 256)
	for i := range vec {
		vec[i] = float64(i%7) - 2.5 + float64(i)/64
	}
	return vec
}

// TestWireStability pins the bytes on the wire: every 200 body a single
// node and a 2-strip coordinator produce for a fixed request list must
// hash to the digest the parent commit's handlers produced, with and
// without stores loaded. It is the serving tier's TestFormatStability.
func TestWireStability(t *testing.T) {
	vec := wireVector()
	fetch := func(base string, rq wireRequest) (int, string) {
		t.Helper()
		var resp *http.Response
		var err error
		if rq.bodyKey == "" {
			resp, err = http.Get(base + rq.path)
		} else {
			body, _ := json.Marshal(map[string][]float64{rq.bodyKey: vec})
			resp, err = http.Post(base+rq.path, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, fmt.Sprintf("%x", sha256.Sum256(b))
	}
	for _, stored := range []bool{false, true} {
		mode := "plain"
		if stored {
			mode = "stored"
		}
		single, cluster := wireTopology(t, stored)
		for _, rq := range wireRequests {
			want := rq.plain
			if stored {
				want = rq.stored
			}
			tiers := map[string]string{"single node": single.URL, "2-strip cluster": cluster.URL}
			if rq.nodeOnly {
				delete(tiers, "2-strip cluster")
			}
			for tier, base := range tiers {
				code, got := fetch(base, rq)
				switch {
				case want == "" && code == http.StatusOK:
					t.Errorf("%s %s %s: status 200 (digest %s), parent commit refused it", mode, tier, rq.path, got)
				case want != "" && code != http.StatusOK:
					t.Errorf("%s %s %s: status %d, parent commit answered 200", mode, tier, rq.path, code)
				case want != "" && got != want:
					t.Errorf("%s %s %s: body hashes to %s, parent commit wrote %s", mode, tier, rq.path, got, want)
				}
			}
		}
	}
}
