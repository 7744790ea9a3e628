//go:build !unix

package bitmat

import "fmt"

// mmap is unavailable off unix; callers fall back to windowed reads.
func (f *File) mmap(size int64) error {
	return fmt.Errorf("mmap is not supported on this platform")
}

func munmap(b []byte) error { return nil }
