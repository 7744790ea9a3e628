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
