//go:build !linux && !darwin

package index

import (
	"io"
	"os"
)

// mmapFile on platforms without the mmap syscall surface reads the file
// into one owned heap slab. OpenMapped still works — same refcounted
// lifecycle, same zero-copy views into the slab — it just pays O(index)
// read time and private RSS, like ReadSegmented.
func mmapFile(f *os.File, size int) ([]byte, bool, error) {
	b := make([]byte, size)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, false, err
	}
	return b, false, nil
}

func munmapBytes(b []byte) error { return nil }

func madviseBytes(b []byte, a Advice) error { return nil }
