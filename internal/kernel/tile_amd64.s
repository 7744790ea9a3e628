//go:build amd64

#include "textflag.h"

// func tile8x8VPOPCNTQ(kc int, ap, bp *uint64, c *uint32, ldc int)
//
// The 8×8 register tile over interleaved panels (ap[l*8+i], bp[l*8+j]).
// Z0–Z7 hold row i's eight column counts as qword lanes. Per sample word
// the eight B words are one zmm load, and each A word reaches all eight
// lanes through the embedded broadcast of VPANDQ, so a lane is a finished
// cell: nothing is ever reduced across lanes. The qword sums are narrowed
// to dwords (mod 2³², the scalar kernels' uint32 wrap) and added into C.
// kc ≥ 1 and the panel and C extents are the Go wrapper's to check.
TEXT ·tile8x8VPOPCNTQ(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), BX
	SHLQ $2, BX // C row stride in bytes
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
	VPADDD (DX), Y8, Y8
	VMOVDQU Y8, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y9, Y9
	VMOVDQU Y9, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y10, Y10
	VMOVDQU Y10, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y11, Y11
	VMOVDQU Y11, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y12, Y12
	VMOVDQU Y12, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y13, Y13
	VMOVDQU Y13, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y14, Y14
	VMOVDQU Y14, (DX)
	ADDQ BX, DX
	VPADDD (DX), Y15, Y15
	VMOVDQU Y15, (DX)
	VZEROUPPER
	RET
