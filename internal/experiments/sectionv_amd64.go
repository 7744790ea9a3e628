//go:build amd64

package experiments

// Section V's loops, in sectionv_amd64.s.
func andCountScalar(a, b *uint64, n int) uint64
func andCountExtract2(a, b *uint64, n int) uint64
func andCountExtract4(a, b *uint64, n int) uint64
func andCountExtract8(a, b *uint64, n int) uint64
func andCountVPOPCNT2(a, b *uint64, n int) uint64
func andCountVPOPCNT4(a, b *uint64, n int) uint64
func andCountVPOPCNT8(a, b *uint64, n int) uint64
