package seqio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// gzipMagic are the first two bytes of any gzip stream.
var gzipMagic = [2]byte{0x1f, 0x8b}

// OpenMaybeGzip opens a file and transparently decompresses it when the
// content is gzip (detected by magic bytes, so a misleading extension is
// harmless). The returned closer closes both layers.
func OpenMaybeGzip(path string) (io.Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(f)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, nil, fmt.Errorf("seqio: peeking %s: %w", path, err)
	}
	if len(head) == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("seqio: opening gzip %s: %w", path, err)
		}
		return gz, multiCloser{gz, f}, nil
	}
	return br, f, nil
}

// multiCloser closes a stack of layers in order.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
