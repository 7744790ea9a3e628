//go:build unix

package ldstore

import (
	"os"
	"syscall"
)

// readFile maps the sealed store read-only. The mapping outlives f, and a
// rebuild never writes the mapped inode (the build removes the path
// first), so the bytes stay the store's until unmap; a store truncated
// under its reader faults on the lost pages, which the queries recover
// into errors (see Store.read).
func readFile(f *os.File, size int64) (data []byte, unmap func([]byte) error, err error) {
	if size == 0 {
		return []byte{}, nil, nil // open refuses it; there is nothing to map
	}
	if int64(int(size)) != size {
		return nil, nil, errorf("file of %d bytes is beyond this host's address space", size)
	}
	if data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
		return nil, nil, err
	}
	return data, syscall.Munmap, nil
}
