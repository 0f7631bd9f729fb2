package pager

import (
	"fmt"
	"os"
)

// Mapping is a read-only view of a whole snapshot file: an mmap'd
// region on platforms that support it (see mmap_linux.go), or the file
// preread into one heap buffer as the portable fallback. Several
// pagers (one per snapshot section, see NewMapped) share one Mapping.
type Mapping struct {
	data   []byte
	f      *os.File
	mapped bool // true when data is a real mmap (madvise/mincore work)
}

// MapFile maps f read-only and takes ownership of it: Close unmaps the
// region and closes the file. On platforms without mmap support the
// whole file is preread into memory instead (Mapped reports which).
func MapFile(f *os.File) (*Mapping, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 {
		return nil, fmt.Errorf("pager: cannot map empty file %s", f.Name())
	}
	if size > 1<<46 {
		return nil, fmt.Errorf("pager: file %s too large to map (%d bytes)", f.Name(), size)
	}
	data, mapped, err := mapFile(f, int(size))
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data, f: f, mapped: mapped}, nil
}

// Data returns the mapped bytes. Read-only: writing through it faults
// (mmap) or corrupts the shared preread buffer (fallback).
func (m *Mapping) Data() []byte { return m.data }

// Mapped reports whether the view is a real file mapping (zero heap)
// rather than the preread fallback.
func (m *Mapping) Mapped() bool { return m.mapped }

// Close unmaps the region and closes the underlying file. The mapping
// must not be used afterwards; closing it again is a no-op.
func (m *Mapping) Close() error {
	var err error
	if m.mapped && m.data != nil {
		err = unmap(m.data)
	}
	m.data = nil
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}

// DropRange advises the OS that [off, off+n) of the mapping will not be
// needed soon, releasing its resident pages back to the kernel (they
// refault from the file on the next access). The range is shrunk to OS
// page boundaries; a no-op on the preread fallback. Returns the bytes
// actually advised.
func (m *Mapping) DropRange(off, n int) int {
	if !m.mapped || n <= 0 || off < 0 || off+n > len(m.data) {
		return 0
	}
	ps := os.Getpagesize()
	lo := (off + ps - 1) / ps * ps
	hi := (off + n) / ps * ps
	if hi <= lo {
		return 0
	}
	if err := advise(m.data[lo:hi], adviseDontNeed); err != nil {
		return 0
	}
	// Madvise only zaps the page tables; the pages stay in the OS page
	// cache (and mincore keeps counting them) until the paired fadvise
	// evicts them from the backing file. Best-effort — dirty or busy
	// pages the kernel declines to drop just stay warm.
	if m.f != nil {
		_ = fadviseDontNeed(m.f, int64(lo), int64(hi-lo))
	}
	return hi - lo
}

// Resident returns how many bytes of [off, off+n) are currently
// resident in physical memory, and whether the probe is supported
// (false on the preread fallback, where everything is heap anyway).
func (m *Mapping) Resident(off, n int) (int64, bool) {
	if !m.mapped || n <= 0 || off < 0 || off+n > len(m.data) {
		return 0, false
	}
	return resident(m.data[off : off+n])
}

// NewMapped returns a pager whose pages 0..count-1 are zero-copy views
// of the count page images of the given size starting at byte off of
// the mapping. The mapping is never written: Alloc and WriteAt put
// their pages in heap buffers (the pager's tail), so the copy-on-write
// contract holds by construction.
func NewMapped(m *Mapping, off, count, pageSize int) (*Pager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pager: mapped page size %d", pageSize)
	}
	if count < 0 || off < 0 || off+count*pageSize > len(m.data) {
		return nil, fmt.Errorf("pager: mapped section [%d, %d+%d×%d) exceeds mapping of %d bytes",
			off, off, count, pageSize, len(m.data))
	}
	p := &Pager{pageSize: pageSize, m: m, off: off, base: count}
	slots := make([][]byte, count)
	for i := range slots {
		lo := off + i*pageSize
		slots[i] = m.data[lo : lo+pageSize : lo+pageSize]
	}
	p.slots.Store(&slots)
	return p, nil
}

// mapped reports whether slot id holds a view into the mapping rather
// than a heap buffer (callers hold mu).
func (p *Pager) mapped(cur [][]byte, id PageID) bool {
	if int(id) >= p.base {
		return false
	}
	b := cur[id]
	return b != nil && len(p.m.data) > 0 && &b[0] == &p.m.data[p.off+int(id)*p.pageSize]
}

// MappedBytes returns the byte extent of the base region the pager was
// opened over (0 for an in-heap pager).
func (p *Pager) MappedBytes() int64 { return int64(p.base) * int64(p.pageSize) }

// Resident returns how many bytes of the base region are resident in
// physical memory, and whether the probe is supported. An in-heap pager
// has no base region: (0, true).
func (p *Pager) Resident() (int64, bool) {
	if p.m == nil {
		return 0, true
	}
	return p.m.Resident(p.off, p.base*p.pageSize)
}

// HeapBytes returns the bytes of the heap buffers the pager holds now:
// every live page of an in-heap pager; for a mapped pager, its tail —
// the pages allocated or rewritten since open and not freed since.
func (p *Pager) HeapBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.heap) * int64(p.pageSize)
}

// DropCaches advises the WHOLE base region out of the OS page cache —
// the harness's cold-start / resident-set-cap lever. Live mapped pages
// refault from the file on their next read. Returns the bytes advised
// (0 on the preread fallback and for an in-heap pager).
func (p *Pager) DropCaches() int {
	if p.m == nil {
		return 0
	}
	return p.m.DropRange(p.off, p.base*p.pageSize)
}
