//go:build !linux

package bitmat

// madvise is a no-op where the syscall package has no Madvise: the mapped
// panels are then read ahead only as the kernel sees fit.
func madvise([]byte) {}
