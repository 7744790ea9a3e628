package kernel

import "ldgemm/internal/popcount"

// masked2x2Scalar is the Masked2x2 compute loop with all sixteen
// accumulators as scalar locals. The [2][2][4]uint32 array formulation
// forces the accumulators to memory (the compiler will not register-
// allocate indexed array elements); naming them individually lets the
// sixteen chains live in registers, which benchmarks ~2× faster.
func masked2x2Scalar(kc int, ap, bp []uint64, c []uint32, ldc int) {
	var (
		v00, i00, j00, x00 uint32
		v01, i01, j01, x01 uint32
		v10, i10, j10, x10 uint32
		v11, i11, j11, x11 uint32
	)
	for l := 0; l < kc; l++ {
		a := ap[4*l : 4*l+4 : 4*l+4]
		b := bp[4*l : 4*l+4 : 4*l+4]
		s0, c0 := a[0], a[1]
		s1, c1 := a[2], a[3]
		t0, d0 := b[0], b[1]
		t1, d1 := b[2], b[3]

		m00 := c0 & d0
		v00 += popcount.Count(m00)
		i00 += popcount.Count(m00 & s0)
		j00 += popcount.Count(m00 & t0)
		x00 += popcount.Count(m00 & s0 & t0)

		m01 := c0 & d1
		v01 += popcount.Count(m01)
		i01 += popcount.Count(m01 & s0)
		j01 += popcount.Count(m01 & t1)
		x01 += popcount.Count(m01 & s0 & t1)

		m10 := c1 & d0
		v10 += popcount.Count(m10)
		i10 += popcount.Count(m10 & s1)
		j10 += popcount.Count(m10 & t0)
		x10 += popcount.Count(m10 & s1 & t0)

		m11 := c1 & d1
		v11 += popcount.Count(m11)
		i11 += popcount.Count(m11 & s1)
		j11 += popcount.Count(m11 & t1)
		x11 += popcount.Count(m11 & s1 & t1)
	}
	c[0] += v00
	c[1] += i00
	c[2] += j00
	c[3] += x00
	c[4] += v01
	c[5] += i01
	c[6] += j01
	c[7] += x01
	c[ldc*4] += v10
	c[ldc*4+1] += i10
	c[ldc*4+2] += j10
	c[ldc*4+3] += x10
	c[ldc*4+4] += v11
	c[ldc*4+5] += i11
	c[ldc*4+6] += j11
	c[ldc*4+7] += x11
}
