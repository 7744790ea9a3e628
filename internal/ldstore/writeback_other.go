//go:build !linux || !(386 || amd64 || arm64 || loong64 || mips || mipsle || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x)

package ldstore

import "os"

// writeback is a no-op where the syscall package has no sync_file_range:
// the seal's fsync then writes the whole store back itself.
func writeback(*os.File, int64, int64) {}
