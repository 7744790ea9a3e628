//go:build amd64

#include "textflag.h"

// Nibble popcount table for the AVX2 tier (Mula's VPSHUFB lookup):
// byte i of each 128-bit lane holds popcount(i) for i in 0..15.
DATA lutpop<>+0(SB)/8, $0x0302020102010100
DATA lutpop<>+8(SB)/8, $0x0403030203020201
DATA lutpop<>+16(SB)/8, $0x0302020102010100
DATA lutpop<>+24(SB)/8, $0x0403030203020201
GLOBL lutpop<>(SB), RODATA|NOPTR, $32

DATA nibmask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibmask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibmask<>(SB), RODATA|NOPTR, $32

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func andCountAVX512(a, b *uint64, n int) uint64
//
// n must be a multiple of 8 (the wrapper rounds down). The main loop
// folds 32 words per stream per iteration through four independent
// VPOPCNTQ accumulators; an 8-word loop drains the remainder.
TEXT ·andCountAVX512(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPQ CX, $32
	JL   tail8

loop32:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPANDQ (DI), Z0, Z0
	VPANDQ 64(DI), Z1, Z1
	VPANDQ 128(DI), Z2, Z2
	VPANDQ 192(DI), Z3, Z3
	VPOPCNTQ Z0, Z0
	VPOPCNTQ Z1, Z1
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ Z0, Z4, Z4
	VPADDQ Z1, Z5, Z5
	VPADDQ Z2, Z6, Z6
	VPADDQ Z3, Z7, Z7
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  loop32

tail8:
	CMPQ CX, $8
	JL   reduce
	VMOVDQU64 (SI), Z0
	VPANDQ (DI), Z0, Z0
	VPOPCNTQ Z0, Z0
	VPADDQ Z0, Z4, Z4
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  tail8

reduce:
	VPADDQ Z5, Z4, Z4
	VPADDQ Z7, Z6, Z6
	VPADDQ Z6, Z4, Z4
	VEXTRACTI64X4 $1, Z4, Y0
	VPADDQ Y0, Y4, Y4
	VEXTRACTI128 $1, Y4, X0
	VPADDQ X0, X4, X4
	VPSRLDQ $8, X4, X0
	VPADDQ X0, X4, X4
	MOVQ X4, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func maskedCountsAVX512(si, ci, sj, cj *uint64, n int) (valid, nI, nJ, nIJ uint64)
//
// One fused pass over the four streams of a masked SNP pair: loads each
// word once and accumulates all four gap-aware counts. n must be a
// multiple of 8.
TEXT ·maskedCountsAVX512(SB), NOSPLIT, $0-72
	MOVQ si+0(FP), SI
	MOVQ ci+8(FP), DI
	MOVQ sj+16(FP), R8
	MOVQ cj+24(FP), R9
	MOVQ n+32(FP), CX
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

loop8:
	CMPQ CX, $8
	JL   reduce
	VMOVDQU64 (DI), Z0
	VPANDQ (R9), Z0, Z0     // Z0 = ci & cj
	VMOVDQU64 (SI), Z1
	VMOVDQU64 (R8), Z2
	VPANDQ Z0, Z1, Z1       // Z1 = cij & si
	VPANDQ Z0, Z2, Z2       // Z2 = cij & sj
	VPANDQ Z1, Z2, Z3       // Z3 = cij & si & sj
	VPOPCNTQ Z0, Z0
	VPOPCNTQ Z1, Z1
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ Z0, Z4, Z4
	VPADDQ Z1, Z5, Z5
	VPADDQ Z2, Z6, Z6
	VPADDQ Z3, Z7, Z7
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $8, CX
	JMP  loop8

reduce:
	VEXTRACTI64X4 $1, Z4, Y0
	VPADDQ Y0, Y4, Y4
	VEXTRACTI128 $1, Y4, X0
	VPADDQ X0, X4, X4
	VPSRLDQ $8, X4, X0
	VPADDQ X0, X4, X4
	MOVQ X4, AX
	MOVQ AX, valid+40(FP)

	VEXTRACTI64X4 $1, Z5, Y0
	VPADDQ Y0, Y5, Y5
	VEXTRACTI128 $1, Y5, X0
	VPADDQ X0, X5, X5
	VPSRLDQ $8, X5, X0
	VPADDQ X0, X5, X5
	MOVQ X5, AX
	MOVQ AX, nI+48(FP)

	VEXTRACTI64X4 $1, Z6, Y0
	VPADDQ Y0, Y6, Y6
	VEXTRACTI128 $1, Y6, X0
	VPADDQ X0, X6, X6
	VPSRLDQ $8, X6, X0
	VPADDQ X0, X6, X6
	MOVQ X6, AX
	MOVQ AX, nJ+56(FP)

	VEXTRACTI64X4 $1, Z7, Y0
	VPADDQ Y0, Y7, Y7
	VEXTRACTI128 $1, Y7, X0
	VPADDQ X0, X7, X7
	VPSRLDQ $8, X7, X0
	VPADDQ X0, X7, X7
	MOVQ X7, AX
	MOVQ AX, nIJ+64(FP)

	VZEROUPPER
	RET

// func andCountAVX2(a, b *uint64, n int) uint64
//
// AVX2 tier: per-byte nibble LUT popcount (VPSHUFB) with VPSADBW
// horizontal byte sums. n must be a multiple of 4.
TEXT ·andCountAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VMOVDQU lutpop<>(SB), Y6
	VMOVDQU nibmask<>(SB), Y7
	VPXOR Y5, Y5, Y5
	VPXOR Y4, Y4, Y4

loop4:
	CMPQ CX, $4
	JL   reduce
	VMOVDQU (SI), Y0
	VPAND (DI), Y0, Y0
	VPAND Y7, Y0, Y1
	VPSRLW $4, Y0, Y0
	VPAND Y7, Y0, Y0
	VPSHUFB Y1, Y6, Y1
	VPSHUFB Y0, Y6, Y0
	VPADDB Y0, Y1, Y0
	VPSADBW Y5, Y0, Y0
	VPADDQ Y0, Y4, Y4
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  loop4

reduce:
	VEXTRACTI128 $1, Y4, X0
	VPADDQ X0, X4, X4
	VPSRLDQ $8, X4, X0
	VPADDQ X0, X4, X4
	MOVQ X4, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func andCount3AVX2(a, b, c *uint64, n int) uint64
TEXT ·andCount3AVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), R8
	MOVQ n+24(FP), CX
	VMOVDQU lutpop<>(SB), Y6
	VMOVDQU nibmask<>(SB), Y7
	VPXOR Y5, Y5, Y5
	VPXOR Y4, Y4, Y4

loop4:
	CMPQ CX, $4
	JL   reduce
	VMOVDQU (SI), Y0
	VPAND (DI), Y0, Y0
	VPAND (R8), Y0, Y0
	VPAND Y7, Y0, Y1
	VPSRLW $4, Y0, Y0
	VPAND Y7, Y0, Y0
	VPSHUFB Y1, Y6, Y1
	VPSHUFB Y0, Y6, Y0
	VPADDB Y0, Y1, Y0
	VPSADBW Y5, Y0, Y0
	VPADDQ Y0, Y4, Y4
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  loop4

reduce:
	VEXTRACTI128 $1, Y4, X0
	VPADDQ X0, X4, X4
	VPSRLDQ $8, X4, X0
	VPADDQ X0, X4, X4
	MOVQ X4, AX
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func andCount4AVX2(a, b, c, d *uint64, n int) uint64
TEXT ·andCount4AVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ c+16(FP), R8
	MOVQ d+24(FP), R9
	MOVQ n+32(FP), CX
	VMOVDQU lutpop<>(SB), Y6
	VMOVDQU nibmask<>(SB), Y7
	VPXOR Y5, Y5, Y5
	VPXOR Y4, Y4, Y4

loop4:
	CMPQ CX, $4
	JL   reduce
	VMOVDQU (SI), Y0
	VPAND (DI), Y0, Y0
	VPAND (R8), Y0, Y0
	VPAND (R9), Y0, Y0
	VPAND Y7, Y0, Y1
	VPSRLW $4, Y0, Y0
	VPAND Y7, Y0, Y0
	VPSHUFB Y1, Y6, Y1
	VPSHUFB Y0, Y6, Y0
	VPADDB Y0, Y1, Y0
	VPSADBW Y5, Y0, Y0
	VPADDQ Y0, Y4, Y4
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  loop4

reduce:
	VEXTRACTI128 $1, Y4, X0
	VPADDQ X0, X4, X4
	VPSRLDQ $8, X4, X0
	VPADDQ X0, X4, X4
	MOVQ X4, AX
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET
