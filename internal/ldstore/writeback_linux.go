//go:build linux && (386 || amd64 || arm64 || loong64 || mips || mipsle || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x)

package ldstore

import (
	"os"
	"syscall"
)

// writeback asks the kernel to start writing bytes [off, off+n) of f to
// disk and returns without waiting for them (sync_file_range with
// SYNC_FILE_RANGE_WRITE), so the seal's fsync finds most of the store
// already written. It is a hint, not durability: nothing is durable until
// a sync covers it, and a filesystem that refuses the call loses only the
// head start, so no error is returned.
func writeback(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, 2 /* SYNC_FILE_RANGE_WRITE */)
}
