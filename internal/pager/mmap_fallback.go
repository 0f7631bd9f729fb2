//go:build !linux

package pager

import (
	"io"
	"os"
)

const adviseDontNeed = 0

// mapFile is the portable fallback: pread the whole file into one heap
// buffer. A mapped pager's zero-copy slot views work identically over it;
// only the resident-set economics differ (everything is heap), which
// Mapping.Mapped reports so harnesses can label their numbers.
func mapFile(f *os.File, size int) ([]byte, bool, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(size)), data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func unmap(data []byte) error { return nil }

func advise(b []byte, advice int) error { return nil }

func resident(b []byte) (int64, bool) { return 0, false }

func fadviseDontNeed(f *os.File, off, n int64) error { return nil }
