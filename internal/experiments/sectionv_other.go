//go:build !amd64

package experiments

// Section V's loops are amd64 assembly. Here popcount reports none of the
// instructions they need, so no loop runs and these stay nil.
var andCountScalar, andCountExtract2, andCountExtract4, andCountExtract8,
	andCountVPOPCNT2, andCountVPOPCNT4, andCountVPOPCNT8 func(a, b *uint64, n int) uint64
