//go:build amd64

#include "textflag.h"

// func tileRow8x8VPOPCNTQ(kc int, ap, bp *uint64, bstride, nt int, c *uint32, ldc int, acc bool, pf unsafe.Pointer, pfRowBytes int)
//
// One row of 8×8 register tiles over interleaved panels (ap[l*8+i],
// bp[t*bstride+l*8+j]): the A micro-panel against nt B micro-panels
// bstride words apart, tile t landing eight dwords further along each of
// eight C rows. Inside a tile Z0–Z7 hold row i's eight column counts as
// qword lanes. Per sample word the eight B words are one zmm load, and each
// A word reaches all eight lanes through the embedded broadcast of VPANDQ,
// so a lane is a finished cell: nothing is ever reduced across lanes. The
// qword sums are narrowed to dwords (mod 2³², the scalar kernels' uint32
// wrap) and leave through one of two exits: added into C (acc, BLAS β = 1)
// or stored over it (β = 0), so a first rank-k update needs no cleared C.
// kc ≥ 1, nt ≥ 1 and the panel and C extents are the Go wrapper's to check.
//
// pf, when not nil, is the destination hint: the first byte the caller will
// write once it converts this run's counts (tile 0, row 0), rows pfRowBytes
// apart, eight bytes a cell — so tile t's eight output rows start 64·t bytes
// along. Each tile prefetches those eight lines before its k-loop: the
// misses then overlap the counting, whose ports (p0/p5) the prefetches do
// not use, instead of stalling the conversion's stores. PREFETCHT0: the
// three levels measured alike here, and T0 is the plain request — the lines
// are written within one row of tiles, so no level is worth keeping them
// out of. Go's assembler has no PREFETCHW; a line no other core holds
// arrives exclusive anyway. Every general register is taken (R14 and R15
// are the runtime's), so the cursor lives in its argument slot and borrows
// R12, CX and SI before the tile sets them. A prefetch cannot fault: past
// the last row or column of the destination it is merely wasted.
TEXT ·tileRow8x8VPOPCNTQ(SB), NOSPLIT, $0-80
	MOVQ kc+0(FP), R8
	MOVQ ap+8(FP), R9
	MOVQ bp+16(FP), DI
	MOVQ bstride+24(FP), R10
	MOVQ nt+32(FP), R11
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), BX
	MOVBLZX acc+56(FP), AX
	SHLQ $2, BX             // C row stride in bytes
	LEAQ (BX)(BX*2), R13    // three C rows
	MOVQ R8, CX
	SHLQ $3, CX
	SUBQ CX, R10            // the k-loop leaves DI 8·kc words into its panel:
	SHLQ $3, R10            // bytes from there to the next panel's first word

tile:
	MOVQ pf+64(FP), R12
	TESTQ R12, R12
	JZ   count
	MOVQ pfRowBytes+72(FP), CX
	LEAQ (CX)(CX*2), SI
	PREFETCHT0 (R12)
	PREFETCHT0 (R12)(CX*1)
	PREFETCHT0 (R12)(CX*2)
	PREFETCHT0 (R12)(SI*1)
	LEAQ (R12)(CX*4), R12
	PREFETCHT0 (R12)
	PREFETCHT0 (R12)(CX*1)
	PREFETCHT0 (R12)(CX*2)
	PREFETCHT0 (R12)(SI*1)
	ADDQ $64, pf+64(FP)

count:
	MOVQ R8, CX
	MOVQ R9, SI
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

word:
	VMOVDQU64 (DI), Z8
	VPANDQ.BCST 0(SI), Z8, Z16
	VPANDQ.BCST 8(SI), Z8, Z17
	VPANDQ.BCST 16(SI), Z8, Z18
	VPANDQ.BCST 24(SI), Z8, Z19
	VPANDQ.BCST 32(SI), Z8, Z20
	VPANDQ.BCST 40(SI), Z8, Z21
	VPANDQ.BCST 48(SI), Z8, Z22
	VPANDQ.BCST 56(SI), Z8, Z23
	VPOPCNTQ Z16, Z16
	VPOPCNTQ Z17, Z17
	VPOPCNTQ Z18, Z18
	VPOPCNTQ Z19, Z19
	VPOPCNTQ Z20, Z20
	VPOPCNTQ Z21, Z21
	VPOPCNTQ Z22, Z22
	VPOPCNTQ Z23, Z23
	VPADDQ Z16, Z0, Z0
	VPADDQ Z17, Z1, Z1
	VPADDQ Z18, Z2, Z2
	VPADDQ Z19, Z3, Z3
	VPADDQ Z20, Z4, Z4
	VPADDQ Z21, Z5, Z5
	VPADDQ Z22, Z6, Z6
	VPADDQ Z23, Z7, Z7
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  word

	VPMOVQD Z0, Y8
	VPMOVQD Z1, Y9
	VPMOVQD Z2, Y10
	VPMOVQD Z3, Y11
	VPMOVQD Z4, Y12
	VPMOVQD Z5, Y13
	VPMOVQD Z6, Y14
	VPMOVQD Z7, Y15
	LEAQ (DX)(BX*4), R12 // C row 4 of this tile
	TESTQ AX, AX
	JZ   store
	VPADDD (DX), Y8, Y8
	VPADDD (DX)(BX*1), Y9, Y9
	VPADDD (DX)(BX*2), Y10, Y10
	VPADDD (DX)(R13*1), Y11, Y11
	VPADDD (R12), Y12, Y12
	VPADDD (R12)(BX*1), Y13, Y13
	VPADDD (R12)(BX*2), Y14, Y14
	VPADDD (R12)(R13*1), Y15, Y15

store:
	VMOVDQU Y8, (DX)
	VMOVDQU Y9, (DX)(BX*1)
	VMOVDQU Y10, (DX)(BX*2)
	VMOVDQU Y11, (DX)(R13*1)
	VMOVDQU Y12, (R12)
	VMOVDQU Y13, (R12)(BX*1)
	VMOVDQU Y14, (R12)(BX*2)
	VMOVDQU Y15, (R12)(R13*1)
	ADDQ $32, DX
	ADDQ R10, DI
	DECQ R11
	JNZ  tile
	VZEROUPPER
	RET
