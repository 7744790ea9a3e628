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
