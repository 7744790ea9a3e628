//go:build amd64

#include "textflag.h"

// The fused epilogue's row kernels: eight cells per instruction, every
// lane the operation sequence of denseEpilogue's Go loops (PairFromFreqs's)
// with one correctly rounded IEEE instruction per Go operation. Nothing is
// fused into an FMA — Go on amd64 never fuses, and the bits depend on it.
// n is a positive multiple of 8; the extents are the Go wrapper's to check.

// D_LANES leaves d = float64(cnt)·inv − pa·colFreq for eight cells in Z0.
// VCVTUDQ2PD is exact for any uint32. Z30 = inv, Z31 = pa.
#define D_LANES \
	VCVTUDQ2PD (SI), Z0   \
	VMULPD     Z30, Z0, Z0 \
	VMULPD     (DX), Z31, Z1 \
	VSUBPD     Z1, Z0, Z0

// func rowDAVX512(out *float64, cnt *uint32, colFreq *float64, n int, inv, pa float64)
TEXT ·rowDAVX512(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         cnt+8(FP), SI
	MOVQ         colFreq+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD inv+32(FP), Z30
	VBROADCASTSD pa+40(FP), Z31
	SHRQ         $3, CX

d8:
	D_LANES
	VMOVUPD Z0, (DI)
	ADDQ    $32, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     d8
	VZEROUPPER
	RET

// func rowR2FastAVX512(out *float64, cnt *uint32, colFreq, colInv *float64, n int, inv, pa, iva float64)
//
// (d·d)·(iva·colInv): the reciprocals grouped first, as the Go loop writes it.
TEXT ·rowR2FastAVX512(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         cnt+8(FP), SI
	MOVQ         colFreq+16(FP), DX
	MOVQ         colInv+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSD inv+40(FP), Z30
	VBROADCASTSD pa+48(FP), Z31
	VBROADCASTSD iva+56(FP), Z29
	SHRQ         $3, CX

fast8:
	D_LANES
	VMULPD  Z0, Z0, Z0
	VMULPD  (BX), Z29, Z2
	VMULPD  Z2, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $32, SI
	ADDQ    $64, DX
	ADDQ    $64, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fast8
	VZEROUPPER
	RET

// func rowR2ExactAVX512(out *float64, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va float64)
//
// den = va·colVar; K1 = den > 0 (GT_OQ: false on NaN, as Go's >); the
// zero-masked divide gives d·d/den under K1 and +0 elsewhere, which is
// `var v float64; if den > 0 { v = d*d/den }`.
TEXT ·rowR2ExactAVX512(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         cnt+8(FP), SI
	MOVQ         colFreq+16(FP), DX
	MOVQ         colVar+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSD inv+40(FP), Z30
	VBROADCASTSD pa+48(FP), Z31
	VBROADCASTSD va+56(FP), Z29
	VPXORQ       Z28, Z28, Z28
	SHRQ         $3, CX

exact8:
	D_LANES
	VMULPD   Z0, Z0, Z0
	VMULPD   (BX), Z29, Z2
	VCMPPD   $0x1E, Z28, Z2, K1
	VDIVPD.Z Z2, Z0, K1, Z0
	VMOVUPD  Z0, (DI)
	ADDQ     $32, SI
	ADDQ     $64, DX
	ADDQ     $64, BX
	ADDQ     $64, DI
	DECQ     CX
	JNZ      exact8
	VZEROUPPER
	RET

// The kept epilogue's kernel (kept.go) stores only the joint counts of
// the cells whose |value| ≥ τ, with their columns, compressed to the front
// of counts and cols. It runs over any n ≥ 1 cells: the last group of eight loads only
// its n mod 8 cells (zero-masked; a masked-off lane never faults) and
// keeps none of the rest. The stores are whole vectors: each group writes
// eight lanes at the current count, which is why the wrapper asks for room
// for n cells rounded up to a multiple of eight, whatever survives.

// keepIota is the lane index of each int32 column lane.
DATA keepIota<>+0(SB)/4, $0
DATA keepIota<>+4(SB)/4, $1
DATA keepIota<>+8(SB)/4, $2
DATA keepIota<>+12(SB)/4, $3
DATA keepIota<>+16(SB)/4, $4
DATA keepIota<>+20(SB)/4, $5
DATA keepIota<>+24(SB)/4, $6
DATA keepIota<>+28(SB)/4, $7
DATA keepIota<>+32(SB)/4, $8
DATA keepIota<>+36(SB)/4, $9
DATA keepIota<>+40(SB)/4, $10
DATA keepIota<>+44(SB)/4, $11
DATA keepIota<>+48(SB)/4, $12
DATA keepIota<>+52(SB)/4, $13
DATA keepIota<>+56(SB)/4, $14
DATA keepIota<>+60(SB)/4, $15
GLOBL keepIota<>(SB), RODATA|NOPTR, $64

// KEEP_SETUP loads the kernel's loop constants: Z26 = τ, Z25 = the
// sign-clearing mask, Z24 = the eight columns col0 … col0+7 in its low
// int32 lanes, Z23 = 8 in every int32 lane, AX = 0 cells kept.
#define KEEP_SETUP(tau, col0) \
	VBROADCASTSD tau, Z26          \
	MOVQ         $0x7fffffffffffffff, R9 \
	VPBROADCASTQ R9, Z25           \
	MOVL         col0, R9          \
	VPBROADCASTD R9, Z24           \
	VPADDD       keepIota<>(SB), Z24, Z24 \
	MOVL         $8, R9            \
	VPBROADCASTD R9, Z23           \
	XORQ         AX, AX

// GROUP_MASK sets K4 to the lanes of the group CX cells from the end holds:
// all eight, or the low CX when fewer are left.
#define GROUP_MASK \
	MOVL  $0xff, R9  \
	CMPQ  CX, $8     \
	JGE   4(PC)      \
	MOVL  $1, R9     \
	SHLL  CX, R9     \
	DECL  R9         \
	KMOVW R9, K4

// KEEP stores the count lanes of Y7 under K4 whose value in Z0 has
// |value| ≥ τ at counts[AX:] (R8) and their columns at cols[AX:] (DI), and
// adds their count to AX. GE_OQ is false on NaN, as Go's >= is. The
// compress is to a register, then a whole store: only the first popcount
// lanes are meaningful.
#define KEEP \
	VPANDQ      Z25, Z0, Z4        \
	VCMPPD      $0x1D, Z26, Z4, K3 \
	KANDW       K4, K3, K3         \
	VPCOMPRESSD Z7, K3, Z5         \
	VMOVDQU     Y5, (R8)(AX*4)     \
	VPCOMPRESSD Z24, K3, Z6        \
	VMOVDQU     Y6, (DI)(AX*4)     \
	KMOVW       K3, R9             \
	POPCNTL     R9, R9             \
	ADDQ        R9, AX

// func keepR2ExactAVX512(cols *int32, counts *uint32, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va, skip, tau float64, col0 int32) int
//
// rowR2ExactAVX512's lanes, kept: the group's counts loaded once into Y7,
// d as D_LANES computes it from them, num = d·d,
// den = va·colVar. A group is skipped, undivided and unstored, when
// num < skip·den in all of its lanes (K2 = NLT_UQ: true on NaN, so a NaN
// lane is never skipped); otherwise the zero-masked divide gives every
// lane its exact value and KEEP selects. skip = 0 skips nothing:
// num < 0·den is false for every num ≥ 0.
TEXT ·keepR2ExactAVX512(SB), NOSPLIT, $0-104
	MOVQ         cols+0(FP), DI
	MOVQ         counts+8(FP), R8
	MOVQ         cnt+16(FP), SI
	MOVQ         colFreq+24(FP), DX
	MOVQ         colVar+32(FP), BX
	MOVQ         n+40(FP), CX
	VBROADCASTSD inv+48(FP), Z30
	VBROADCASTSD pa+56(FP), Z31
	VBROADCASTSD va+64(FP), Z29
	VBROADCASTSD skip+72(FP), Z27
	VPXORQ       Z28, Z28, Z28
	KEEP_SETUP(tau+80(FP), col0+88(FP))

keepr2:
	GROUP_MASK
	VMOVDQU32.Z  (SI), K4, Y7
	VCVTUDQ2PD   Y7, Z0
	VMULPD       Z30, Z0, Z0
	VMULPD.Z     (DX), Z31, K4, Z1
	VSUBPD       Z1, Z0, Z0
	VMULPD       Z0, Z0, Z0
	VMULPD.Z     (BX), Z29, K4, Z2
	VMULPD       Z2, Z27, Z3
	VCMPPD       $0x15, Z3, Z0, K2
	KANDW        K4, K2, K2
	KORTESTW     K2, K2
	JZ           skipped
	VCMPPD       $0x1E, Z28, Z2, K1
	VDIVPD.Z     Z2, Z0, K1, Z0
	KEEP

skipped:
	VPADDD Z23, Z24, Z24
	ADDQ   $32, SI
	ADDQ   $64, DX
	ADDQ   $64, BX
	SUBQ   $8, CX
	JGT    keepr2
	MOVQ   AX, ret+96(FP)
	VZEROUPPER
	RET

// The selection epilogue's kernel (select.go) converts by
// rowR2FastAVX512's lanes, counts the cells below the cut (LT_OQ: false on
// NaN, as Go's < is) in eight int64 lanes, and compress-stores the r² and
// column of the cells not below thr (NLT_UQ: true on NaN, so a NaN lane is
// a candidate) at the front of vals and cols, whole-vector stores after a
// register compress at the current candidate count; the wrapper passes the
// greater of the cut and the floor as thr. Whole groups of eight run
// unmasked; the last n mod 8 cells run once more, their loads zero-masked
// as in keepR2ExactAVX512 (a masked-off lane never faults). Once a worker's
// heap is full most groups have no candidate and store nothing. KEEP_SETUP
// is the kept kernel's, with the cut as its τ (Z26).

// func selectR2FastAVX512(cols *int32, vals *float64, cnt *uint32, colFreq, colInv *float64, n int, inv, pa, iva, thr, cut float64, col0 int32) (cands, below int)
TEXT ·selectR2FastAVX512(SB), NOSPLIT, $0-112
	MOVQ         cols+0(FP), DI
	MOVQ         vals+8(FP), R8
	MOVQ         cnt+16(FP), SI
	MOVQ         colFreq+24(FP), DX
	MOVQ         colInv+32(FP), BX
	MOVQ         n+40(FP), CX
	VBROADCASTSD inv+48(FP), Z30
	VBROADCASTSD pa+56(FP), Z31
	VBROADCASTSD iva+64(FP), Z29
	VBROADCASTSD thr+72(FP), Z27
	KEEP_SETUP(cut+80(FP), col0+88(FP))
	VPXORQ       Z8, Z8, Z8
	MOVQ         $1, R9
	VPBROADCASTQ R9, Z9
	MOVQ         CX, R11
	SHRQ         $3, R11
	JZ           seltail

select8:
	VCVTUDQ2PD (SI), Z0
	VMULPD     Z30, Z0, Z0
	VMULPD     (DX), Z31, Z1
	VSUBPD     Z1, Z0, Z0
	VMULPD     Z0, Z0, Z0
	VMULPD     (BX), Z29, Z2
	VMULPD     Z2, Z0, Z0
	VCMPPD     $0x11, Z26, Z0, K2
	VPADDQ     Z9, Z8, K2, Z8
	VCMPPD     $0x15, Z27, Z0, K3
	KORTESTW   K3, K3
	JNZ        selstore8

selnext8:
	VPADDD Z23, Z24, Z24
	ADDQ   $32, SI
	ADDQ   $64, DX
	ADDQ   $64, BX
	DECQ   R11
	JNZ    select8
	JMP    seltail

selstore8:
	VCOMPRESSPD Z0, K3, Z5
	VMOVUPD     Z5, (R8)(AX*8)
	VPCOMPRESSD Z24, K3, Z6
	VMOVDQU     Y6, (DI)(AX*4)
	KMOVW       K3, R9
	POPCNTL     R9, R9
	ADDQ        R9, AX
	JMP         selnext8

seltail:
	ANDQ        $7, CX
	JZ          seldone
	MOVL        $1, R9
	SHLL        CX, R9
	DECL        R9
	KMOVW       R9, K4
	VMOVDQU32.Z (SI), K4, Y7
	VCVTUDQ2PD  Y7, Z0
	VMULPD      Z30, Z0, Z0
	VMULPD.Z    (DX), Z31, K4, Z1
	VSUBPD      Z1, Z0, Z0
	VMULPD      Z0, Z0, Z0
	VMULPD.Z    (BX), Z29, K4, Z2
	VMULPD      Z2, Z0, Z0
	VCMPPD      $0x11, Z26, Z0, K2
	KANDW       K4, K2, K2
	VPADDQ      Z9, Z8, K2, Z8
	VCMPPD      $0x15, Z27, Z0, K3
	KANDW       K4, K3, K3
	VCOMPRESSPD Z0, K3, Z5
	VMOVUPD     Z5, (R8)(AX*8)
	VPCOMPRESSD Z24, K3, Z6
	VMOVDQU     Y6, (DI)(AX*4)
	KMOVW       K3, R9
	POPCNTL     R9, R9
	ADDQ        R9, AX

seldone:
	VEXTRACTI64X4 $1, Z8, Y1
	VPADDQ        Y1, Y8, Y1
	VEXTRACTI128  $1, Y1, X2
	VPADDQ        X2, X1, X1
	VPSHUFD       $0x4E, X1, X2
	VPADDQ        X2, X1, X1
	MOVQ          X1, R10
	MOVQ          AX, cands+96(FP)
	MOVQ          R10, below+104(FP)
	VZEROUPPER
	RET

// The counts epilogue's kernel (counts.go) stores a row run's counts
// narrowed to uint16 by VPMOVDW, which keeps the low half of each lane as
// Go's conversion does, and folds the exact r² of every cell into a
// running maximum, rowR2ExactAVX512's lanes with the divide's +0 where
// den ≤ 0. Each lane's maximum starts at m. VMAXPD returns its second
// source when the first is NaN or both are zeros, so `VMAXPD Z27, Z0, Z27`
// is, lane by lane, Go's `if v > m { m = v }`. The eight lane maxima are
// folded the same way at the end; each is m or an r² above it, an r² is
// never −0, and a NaN never enters one, so the order they fold in cannot
// change the bits.
//
// A group is skipped, stored but undivided, when num < skip·den in all of
// its lanes (NLT_UQ as in keepR2ExactAVX512: a NaN lane is never skipped),
// skip being skipBound of that lane's running maximum (Z26). By the
// rounding argument of skipBound, every skipped cell's r² lies below that
// lane's maximum and cannot raise it. A lane whose maximum is negative,
// ±0, subnormal, infinite or NaN has skip = 0 and skips nothing.

// SKIP_BOUND sets Z26 to skipBound of each lane maximum in Z27:
// Z27·(1−2⁻⁴⁰) where 2⁻¹⁰²² ≤ Z27 ≤ MaxFloat64 (GE_OQ and LE_OQ are false
// on NaN, as Go's >= and <= are), else 0. Z25 = 1−2⁻⁴⁰, Z24 = 2⁻¹⁰²²,
// Z23 = MaxFloat64.
#define SKIP_BOUND \
	VCMPPD   $0x1D, Z24, Z27, K2 \
	VCMPPD   $0x12, Z23, Z27, K3 \
	KANDW    K3, K2, K2          \
	VMULPD.Z Z25, Z27, K2, Z26

// func countsR2Max16AVX512(dst *uint16, cnt *uint32, colFreq, colVar *float64, n int, inv, pa, va, m float64) float64
TEXT ·countsR2Max16AVX512(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         cnt+8(FP), SI
	MOVQ         colFreq+16(FP), DX
	MOVQ         colVar+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSD inv+40(FP), Z30
	VBROADCASTSD pa+48(FP), Z31
	VBROADCASTSD va+56(FP), Z29
	VBROADCASTSD m+64(FP), Z27
	VPXORQ       Z28, Z28, Z28
	MOVQ         $0x3fefffffffffe000, R9 // 1−2⁻⁴⁰
	VPBROADCASTQ R9, Z25
	MOVQ         $0x0010000000000000, R9 // 2⁻¹⁰²²
	VPBROADCASTQ R9, Z24
	MOVQ         $0x7fefffffffffffff, R9 // MaxFloat64
	VPBROADCASTQ R9, Z23
	SKIP_BOUND
	SHRQ         $3, CX

counts16:
	VMOVDQU  (SI), Y3
	VPMOVDW  Y3, (DI)
	D_LANES
	VMULPD   Z0, Z0, Z0
	VMULPD   (BX), Z29, Z2
	VMULPD   Z2, Z26, Z3
	VCMPPD   $0x15, Z3, Z0, K2
	KORTESTW K2, K2
	JZ       counted16
	VCMPPD   $0x1E, Z28, Z2, K1
	VDIVPD.Z Z2, Z0, K1, Z0
	VMAXPD   Z27, Z0, Z27
	SKIP_BOUND

counted16:
	ADDQ $32, SI
	ADDQ $64, DX
	ADDQ $64, BX
	ADDQ $16, DI
	DECQ CX
	JNZ  counts16

	VEXTRACTF64X4 $1, Z27, Y1
	VMOVAPD       Z27, Z0
	VMAXPD        Y0, Y1, Y0
	VEXTRACTF128  $1, Y0, X1
	VMAXPD        X0, X1, X0
	VPERMILPD     $1, X0, X1
	VMAXPD        X0, X1, X0
	VZEROUPPER
	MOVSD         X0, ret+72(FP)
	RET
