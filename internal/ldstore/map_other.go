//go:build !unix

package ldstore

import "os"

// readFile reads the whole store into memory where there is no mmap: the
// queries then run over that buffer as they run over a mapping.
func readFile(f *os.File, size int64) ([]byte, func([]byte) error, error) {
	data, err := readAll(f, size)
	return data, nil, err
}
