package blis

import (
	"iter"
	"math/rand"
	"sync"
	"testing"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/kernel"
)

// cellLog records what one panel's epilogue was handed: how many times
// each cell of its rows × n block arrived, and the count it arrived with.
type cellLog struct {
	mu   sync.Mutex
	n    int
	seen []int
	got  []uint32
}

func newCellLog(rows, n int) *cellLog {
	return &cellLog{n: n, seen: make([]int, rows*n), got: make([]uint32, rows*n)}
}

// epi records into l; col0 is the panel's first global column.
func (l *cellLog) epi(col0 int) TileEpilogue {
	return func(_ int, tile []uint32, ldt, i0, j0, mm, nn int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for r := 0; r < mm; r++ {
			for c := 0; c < nn; c++ {
				k := (i0+r)*l.n + j0 - col0 + c
				l.seen[k]++
				l.got[k] = tile[r*ldt+c]
			}
		}
	}
}

// stripePanels yields each of bs with the epilogue of its log.
func stripePanels(bs []*bitmat.Matrix, logs []*cellLog) iter.Seq2[Panel, error] {
	return func(yield func(Panel, error) bool) {
		for p, b := range bs {
			if !yield(Panel{B: b, Epi: logs[p].epi(0)}, nil) {
				return
			}
		}
	}
}

// sameCells fails unless a and b were handed the same cells, each once,
// with the same counts.
func sameCells(t *testing.T, what string, a, b *cellLog) {
	t.Helper()
	for k := range a.seen {
		if a.seen[k] > 1 || b.seen[k] > 1 {
			t.Fatalf("%s: cell %d handed over %d / %d times", what, k, a.seen[k], b.seen[k])
		}
		if a.seen[k] != b.seen[k] {
			t.Fatalf("%s: cell %d handed over %d times by the stripe call, %d by the panel calls", what, k, a.seen[k], b.seen[k])
		}
		if a.seen[k] == 1 && a.got[k] != b.got[k] {
			t.Fatalf("%s: cell %d = %d in the stripe call, %d in the panel calls", what, k, a.got[k], b.got[k])
		}
	}
}

// A stripe call hands over what its panels' own calls do — SyrkEpilogue on
// the diagonal block, then GemmEpilogue on each B panel — over blocking
// fringes, K in one slab, in several, and in several slab groups, on 1, 2
// and 4 threads, with a last panel narrower than NR; and it is one driver
// call.
func TestStripeMatchesPanelCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	widths := []int{20, 29, 3} // the last under every kernel's NR
	groupWords := maxGroupWords
	defer func() { maxGroupWords = groupWords }()
	for _, k := range []kernel.Kernel{kernel.Default, kernel.Generic(4, 8), kernel.Generic(3, 5)} {
		for _, threads := range []int{1, 2, 4} {
			cfg := Config{MC: 12, NC: 20, KC: 1, Kernel: k, Threads: threads}
			for _, tc := range []struct {
				name          string
				samples, grow int
			}{
				{"one slab", 64 - 7, 0},
				{"several slabs", 64*5 + 9, 0},
				{"several groups", 64*5 + 9, 64},
			} {
				maxGroupWords = groupWords
				if tc.grow > 0 {
					maxGroupWords = tc.grow
				}
				for _, m := range []int{1, 16, 37} {
					a := randomMatrix(rng, m, tc.samples)
					bs := make([]*bitmat.Matrix, len(widths))
					stripe, calls := make([]*cellLog, len(widths)), make([]*cellLog, len(widths))
					for p, w := range widths {
						bs[p] = randomMatrix(rng, w, tc.samples)
						stripe[p], calls[p] = newCellLog(m, w), newCellLog(m, w)
					}
					stripeDiag, callsDiag := newCellLog(m, m), newCellLog(m, m)

					before := ReadStats().Calls
					if err := StripeEpilogue(cfg, a, stripeDiag.epi(0), stripePanels(bs, stripe)); err != nil {
						t.Fatal(err)
					}
					if d := ReadStats().Calls - before; d != 1 {
						t.Fatalf("a stripe call counted %d driver calls, want 1", d)
					}
					if err := SyrkEpilogue(cfg, a, callsDiag.epi(0)); err != nil {
						t.Fatal(err)
					}
					for p, b := range bs {
						if err := GemmEpilogue(cfg, a, b, calls[p].epi(0)); err != nil {
							t.Fatal(err)
						}
					}
					what := func(part string) string {
						return k.Name + "/" + tc.name + "/" + part
					}
					sameCells(t, what("diagonal"), stripeDiag, callsDiag)
					for p := range bs {
						sameCells(t, what("panel"), stripe[p], calls[p])
					}
				}
			}
		}
	}
}

// In one slab group a stripe call of one row block — a store build's
// stripe is MC rows — packs each A micro-panel once per worker that
// computes it, however many B panels, each of several column blocks,
// stream past it; a call per panel packs it once per panel and column
// block. A worker holds one row block's A, so a taller stripe repacks it
// as a call per panel would.
func TestStripePacksAOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m, samples, panels = 12, 64*5 + 9, 4
	a := randomMatrix(rng, m, samples)
	bs := make([]*bitmat.Matrix, panels)
	for p := range bs {
		bs[p] = randomMatrix(rng, 24, samples)
	}
	for _, threads := range []int{1, 2, 4} {
		cfg, err := Config{MC: 12, NC: 20, KC: 2, Threads: threads}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		runs, _, _ := plainRoute(cfg.Kernel, a.Words)
		var mu sync.Mutex
		packs := map[[2]int]int{} // (first SNP, first word) → packs
		wrap := func(b *bitmat.Matrix, syrk bool) tilePanel {
			ops := plainOps(cfg.Kernel, runs, a, b)
			inner := ops.packA
			ops.packA = func(dst []uint64, snp, count, pc, kc int) {
				mu.Lock()
				packs[[2]int{snp, pc}]++
				mu.Unlock()
				inner(dst, snp, count, pc, kc)
			}
			return tilePanel{ops: ops, n: b.SNPs, syrk: syrk, epi: TileEpilogue(func(int, []uint32, int, int, int, int, int) {})}
		}
		err = driveTiles(cfg, m, a.Words, func(yield func(tilePanel, error) bool) {
			if !yield(wrap(a, true), nil) {
				return
			}
			for _, b := range bs {
				if !yield(wrap(b, false), nil) {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		mr := cfg.Kernel.MR
		want := (m + mr - 1) / mr * ((a.Words + cfg.KC - 1) / cfg.KC) // A micro-panels × slabs
		if len(packs) != want {
			t.Fatalf("threads %d: %d distinct A micro-panels packed, want %d", threads, len(packs), want)
		}
		for key, n := range packs {
			if n > threads {
				t.Fatalf("threads %d: A micro-panel at SNP %d, word %d packed %d times", threads, key[0], key[1], n)
			}
		}
	}
}
