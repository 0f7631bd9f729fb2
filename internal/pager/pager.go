// Package pager simulates a disk of fixed-size pages with read/write
// accounting. Both the R-tree baseline and the UV-index store their leaf
// payloads through a Pager, so the I/O numbers reported by the benchmark
// harness (Figure 6(b) and friends) are counted at a single choke point.
//
// A Pager keeps its pages in an atomically published slot array. A slot
// holds a heap buffer, or — for a pager opened over a snapshot file with
// NewMapped — a zero-copy view of a page image in the read-only Mapping
// (the out-of-core serving mode, see mapping.go). Pages written after
// open always go to heap buffers, so the mapping is never written.
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the 4 KB page size used by the paper's evaluation.
const DefaultPageSize = 4096

// PageID names a page on the simulated disk.
type PageID int32

// Pager is a simulated disk: a slot array of pages plus atomic I/O
// counters. Reads are LOCK-FREE — one atomic load of the published slot
// array plus an index — so a database served over the network can run
// queries in parallel while an insert allocates pages. The publication
// protocol makes this safe without a reader-side lock:
//
//   - Growing the array publishes a fresh slice header; a reader holding
//     an older header cannot see (and, by the COW index invariant,
//     cannot hold the id of) pages allocated after its load.
//   - Free and slot reuse store into the SHARED backing array, but only
//     after the epoch grace period guarantees no reader can reach that
//     slot's id — concurrent reads of other elements never touch the
//     written address. A reused slot gets a FRESH buffer, so a reader
//     that obtained the old one through Read keeps its bytes.
//   - A published page's bytes are immutable once a reader can reach
//     them (Alloc copies; WriteAt only fills bytes no reader loads, and
//     moves a mapped page to the heap before writing), so the data a
//     reader dereferences is always the bytes that were there when its
//     id was reachable.
//
// Freeing a page still reachable by a concurrent reader is the caller's
// bug: the freed slot holds nil, so such a reader fails loudly. The
// epoch domains guarantee the grace period for the COW index paths.
type Pager struct {
	pageSize int
	slots    atomic.Pointer[[][]byte]
	mu       sync.Mutex // serializes Alloc/Free/WriteAt; guards free and heap
	free     []PageID
	heap     int // slots holding a heap buffer
	// m, off and base describe the mapped region of a NewMapped pager:
	// slots 0..base-1 start as views of the base page images at byte
	// off of m. m is nil for an in-heap pager.
	m         *Mapping
	off, base int
	reads     atomic.Int64
	writes    atomic.Int64
}

// New returns an empty in-heap pager with the given page size
// (DefaultPageSize if size ≤ 0).
func New(size int) *Pager {
	if size <= 0 {
		size = DefaultPageSize
	}
	p := &Pager{pageSize: size}
	p.slots.Store(new([][]byte))
	return p
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages returns the number of live (allocated, not freed) pages.
func (p *Pager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(*p.slots.Load()) - len(p.free)
}

// BytesOnDisk returns the total simulated disk footprint.
func (p *Pager) BytesOnDisk() int64 {
	return int64(p.NumPages()) * int64(p.PageSize())
}

// Read returns the content of a page; one read. The returned slice is
// the live page buffer (or a view into the mapped file): callers must
// treat it as read-only.
func (p *Pager) Read(id PageID) []byte {
	p.reads.Add(1)
	return (*p.slots.Load())[id]
}

// Peek is Read without I/O accounting — the persistence and maintenance
// paths use it so writing a snapshot does not pollute the query-side
// read counters.
func (p *Pager) Peek(id PageID) []byte { return (*p.slots.Load())[id] }

func checkFit(off int, data []byte, pageSize int) {
	if off < 0 || off+len(data) > pageSize {
		panic(fmt.Sprintf("pager: payload of %d bytes at offset %d exceeds page size %d", len(data), off, pageSize))
	}
}

// Alloc copies data into a fresh heap page and returns its id,
// preferring a freed slot over growing the disk. It counts as one
// write. data must fit in a page.
func (p *Pager) Alloc(data []byte) PageID {
	checkFit(0, data, p.pageSize)
	page := make([]byte, p.pageSize)
	copy(page, data)
	p.mu.Lock()
	var id PageID
	cur := p.slots.Load()
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
		(*cur)[id] = page
	} else {
		np := append(*cur, page)
		id = PageID(len(np) - 1)
		// Publish the longer header; older headers stay valid for the
		// ids their readers can reach.
		p.slots.Store(&np)
	}
	p.heap++
	p.mu.Unlock()
	p.writes.Add(1)
	return id
}

// WriteAt copies data into page id at byte off, leaving the rest of the
// page as it is; one write. On a heap page the write is in place, so it
// is safe against concurrent readers of OTHER bytes of the page: the
// object store appends records into the unused end of its last page
// while queries read the records before them. A mapped page is
// read-only, so it first moves to a fresh heap buffer — not safe
// against a concurrent reader of that page — while the old bytes stay
// visible to readers that already obtained them. The index paths never
// rewrite a reachable page (they Alloc a replacement and Free the old
// slot).
func (p *Pager) WriteAt(id PageID, off int, data []byte) {
	checkFit(off, data, p.pageSize)
	p.writes.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.slots.Load()
	if cur[id] == nil {
		panic(fmt.Sprintf("pager: write to freed page %d", id))
	}
	if p.mapped(cur, id) {
		page := make([]byte, p.pageSize)
		copy(page, cur[id])
		cur[id] = page
		p.heap++
	}
	copy(cur[id][off:], data)
}

// Free returns page slots to the allocator and releases their storage at
// once: a heap buffer goes to the GC, a mapped view is dropped (its file
// pages are clean, so the kernel evicts them first under memory
// pressure). Callers free a page only once no reader can still reach
// its id (the epoch domains guarantee this for the COW index paths).
func (p *Pager) Free(ids []PageID) {
	if len(ids) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.slots.Load()
	for _, id := range ids {
		if cur[id] == nil {
			panic(fmt.Sprintf("pager: page %d freed twice", id))
		}
		if !p.mapped(cur, id) {
			p.heap--
		}
		cur[id] = nil
	}
	p.free = append(p.free, ids...)
}

// Reads returns the number of page reads since the last ResetStats.
func (p *Pager) Reads() int64 { return p.reads.Load() }

// Writes returns the number of page writes since the last ResetStats.
func (p *Pager) Writes() int64 { return p.writes.Load() }

// ResetStats zeroes the I/O counters (the pages stay).
func (p *Pager) ResetStats() {
	p.reads.Store(0)
	p.writes.Store(0)
}
