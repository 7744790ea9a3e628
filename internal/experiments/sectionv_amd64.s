//go:build amd64

#include "textflag.h"

// Section V's seven loops: Σ popcount(a[i] & b[i]) over n words, n a
// multiple of 8, each in one loop shape, 64 bytes of each operand an
// iteration (SI and DI walk a and b, CX counts iterations down). Every
// kernel's result store and RET stay outside the macros, where vet's
// asmdecl checks them.

#define ENTER \
	MOVQ a+0(FP), SI; \
	MOVQ b+8(FP), DI; \
	MOVQ n+16(FP), CX; \
	XORQ AX, AX; \
	XORQ BX, BX; \
	SHRQ $3, CX; \
	JZ   done

#define NEXT \
	ADDQ $64, SI; \
	ADDQ $64, DI; \
	DECQ CX; \
	JNZ  loop

// Two words through the scalar unit: AND, POPCNT, ADD, into AX and BX.
#define SCALAR2(off) \
	MOVQ off(SI), R8; \
	MOVQ off+8(SI), R9; \
	ANDQ off(DI), R8; \
	ANDQ off+8(DI), R9; \
	POPCNTQ R8, R8; \
	POPCNTQ R9, R9; \
	ADDQ R8, AX; \
	ADDQ R9, BX

// Both lanes of xmm x moved to general registers and counted by POPCNTQ.
#define LANES2(x) \
	VMOVQ x, R8; \
	VPEXTRQ $1, x, R9; \
	POPCNTQ R8, R8; \
	POPCNTQ R9, R9; \
	ADDQ R8, AX; \
	ADDQ R9, BX

#define EXTRACT2(off) \
	VMOVDQU off(SI), X0; \
	VPAND off(DI), X0, X0; \
	LANES2(X0)

// VPOPCNTQ counts every lane of r in place; a vector add keeps the counts.
#define HW(off, r, acc) \
	VMOVDQU64 off(SI), r; \
	VPANDQ off(DI), r, r; \
	VPOPCNTQ r, r; \
	VPADDQ r, acc, acc

// Fold the lanes of accumulator Z4 into AX: FOLD8 halves 8 lanes into Y4,
// FOLD4 4 into X4, FOLD2 the last 2 into AX.
#define FOLD8 VEXTRACTI64X4 $1, Z4, Y0; VPADDQ Y0, Y4, Y4
#define FOLD4 VEXTRACTI128 $1, Y4, X0; VPADDQ X0, X4, X4
#define FOLD2 VPSRLDQ $8, X4, X0; VPADDQ X0, X4, X4; VMOVQ X4, AX

// func andCountScalar(a, b *uint64, n int) uint64
TEXT ·andCountScalar(SB), NOSPLIT, $0-32
	ENTER
loop:
	SCALAR2(0)
	SCALAR2(16)
	SCALAR2(32)
	SCALAR2(48)
	NEXT
done:
	ADDQ BX, AX
	MOVQ AX, ret+24(FP)
	RET

// func andCountExtract2(a, b *uint64, n int) uint64
TEXT ·andCountExtract2(SB), NOSPLIT, $0-32
	ENTER
loop:
	EXTRACT2(0)
	EXTRACT2(16)
	EXTRACT2(32)
	EXTRACT2(48)
	NEXT
done:
	ADDQ BX, AX
	MOVQ AX, ret+24(FP)
	RET

// func andCountExtract4(a, b *uint64, n int) uint64
TEXT ·andCountExtract4(SB), NOSPLIT, $0-32
	ENTER
loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPAND (DI), Y0, Y0
	VPAND 32(DI), Y1, Y1
	VEXTRACTI128 $1, Y0, X2
	VEXTRACTI128 $1, Y1, X3
	LANES2(X0)
	LANES2(X2)
	LANES2(X1)
	LANES2(X3)
	NEXT
done:
	VZEROUPPER
	ADDQ BX, AX
	MOVQ AX, ret+24(FP)
	RET

// func andCountExtract8(a, b *uint64, n int) uint64
TEXT ·andCountExtract8(SB), NOSPLIT, $0-32
	ENTER
loop:
	VMOVDQU64 (SI), Z0
	VPANDQ (DI), Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VEXTRACTI128 $1, Y0, X2
	VEXTRACTI128 $1, Y1, X3
	LANES2(X0)
	LANES2(X2)
	LANES2(X1)
	LANES2(X3)
	NEXT
done:
	VZEROUPPER
	ADDQ BX, AX
	MOVQ AX, ret+24(FP)
	RET

// func andCountVPOPCNT2(a, b *uint64, n int) uint64
TEXT ·andCountVPOPCNT2(SB), NOSPLIT, $0-32
	VPXORQ X4, X4, X4
	VPXORQ X5, X5, X5
	ENTER
loop:
	HW(0, X0, X4)
	HW(16, X1, X5)
	HW(32, X2, X4)
	HW(48, X3, X5)
	NEXT
done:
	VPADDQ X5, X4, X4
	FOLD2
	MOVQ AX, ret+24(FP)
	RET

// func andCountVPOPCNT4(a, b *uint64, n int) uint64
TEXT ·andCountVPOPCNT4(SB), NOSPLIT, $0-32
	VPXORQ Y4, Y4, Y4
	VPXORQ Y5, Y5, Y5
	ENTER
loop:
	HW(0, Y0, Y4)
	HW(32, Y1, Y5)
	NEXT
done:
	VPADDQ Y5, Y4, Y4
	FOLD4
	FOLD2
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func andCountVPOPCNT8(a, b *uint64, n int) uint64
TEXT ·andCountVPOPCNT8(SB), NOSPLIT, $0-32
	VPXORQ Z4, Z4, Z4
	ENTER
loop:
	HW(0, Z0, Z4)
	NEXT
done:
	FOLD8
	FOLD4
	FOLD2
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
