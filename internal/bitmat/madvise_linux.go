package bitmat

import "syscall"

// madvise issues MADV_WILLNEED on the region — the mmap'd prefetch path:
// the kernel starts readahead for the next panel while the GEMM chews on
// the current one. Errors are deliberately ignored; the hint is advisory.
func madvise(b []byte) {
	if len(b) == 0 {
		return
	}
	_ = syscall.Madvise(b, syscall.MADV_WILLNEED)
}
