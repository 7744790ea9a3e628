//go:build unix

package bitmat

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mmap maps the whole container read-only and builds the word view of the
// data section. The zero-copy view reinterprets file bytes as uint64s, so
// it is only valid where the host byte order matches the little-endian
// file order; big-endian hosts must use windowed reads.
func (f *File) mmap(size int64) error {
	if !hostLittleEndian() {
		return fmt.Errorf("zero-copy ldbm view needs a little-endian host")
	}
	if size <= ldbmHeaderSize {
		// Zero-SNP container: nothing to map.
		f.mapped = []byte{}
		f.data = nil
		return nil
	}
	b, err := syscall.Mmap(int(f.f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	words := (len(b) - ldbmHeaderSize) / 8
	f.mapped = b
	if words > 0 {
		// The 64-byte header keeps this 8-aligned within the page-aligned
		// mapping.
		f.data = unsafe.Slice((*uint64)(unsafe.Pointer(&b[ldbmHeaderSize])), words)
	}
	return nil
}

func munmap(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	return syscall.Munmap(b)
}
