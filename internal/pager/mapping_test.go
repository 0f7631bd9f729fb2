package pager

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// writeTempPages writes n sequential page images of the given size to a
// temp file and returns its mapping: page i is filled with byte i+1 and
// stamped with its index, so content mismatches are loud.
func writeTempPages(t *testing.T, n, pageSize int) *Mapping {
	t.Helper()
	buf := make([]byte, n*pageSize)
	for i := 0; i < n; i++ {
		page := buf[i*pageSize : (i+1)*pageSize]
		for j := range page {
			page[j] = byte(i + 1)
		}
		binary.LittleEndian.PutUint32(page, uint32(i))
	}
	path := filepath.Join(t.TempDir(), "pages.bin")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestFileStoreReadsAreZeroCopy(t *testing.T) {
	const n, ps = 8, 128
	m := writeTempPages(t, n, ps)
	p, err := NewMapped(m, 0, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPages() != n || p.PageSize() != ps || p.MappedBytes() != n*ps || p.HeapBytes() != 0 {
		t.Fatalf("NumPages=%d PageSize=%d MappedBytes=%d HeapBytes=%d",
			p.NumPages(), p.PageSize(), p.MappedBytes(), p.HeapBytes())
	}
	for i := 0; i < n; i++ {
		got := p.Read(PageID(i))
		if int(binary.LittleEndian.Uint32(got)) != i || got[ps-1] != byte(i+1) {
			t.Fatalf("page %d content wrong", i)
		}
		if &got[0] != &m.Data()[i*ps] {
			t.Fatalf("page %d read is not a view into the mapping", i)
		}
	}
	if p.Reads() != int64(n) {
		t.Fatalf("reads = %d", p.Reads())
	}
}

func TestFileStoreCOWTail(t *testing.T) {
	const n, ps = 4, 64
	m := writeTempPages(t, n, ps)
	p, err := NewMapped(m, 0, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	wantTail := func(pages int) {
		t.Helper()
		if got := p.HeapBytes(); got != int64(pages*ps) {
			t.Fatalf("HeapBytes = %d, want %d", got, pages*ps)
		}
	}

	// A reader holds page 1's mapped bytes.
	old := p.Read(1)
	oldCopy := append([]byte(nil), old...)

	// Rewrite page 1: the slot must repoint at a heap buffer, the old
	// view must keep its bytes.
	p.WriteAt(1, 0, []byte("rewritten"))
	if !bytes.Equal(old, oldCopy) {
		t.Fatal("mapped bytes changed under a reader after WriteAt")
	}
	if got := p.Read(1); !bytes.Equal(got[:9], []byte("rewritten")) {
		t.Fatalf("after WriteAt, Read = %q", got[:9])
	}
	wantTail(1)

	// Free page 2 (grace period elapsed by assumption): the view is
	// dropped and holds no tail. Alloc reuses the slot with fresh heap
	// bytes while the old view survives.
	old2 := p.Read(2)
	old2Copy := append([]byte(nil), old2...)
	p.Free([]PageID{2})
	if p.Peek(2) != nil {
		t.Fatal("freed mapped slot still holds its view")
	}
	wantTail(1)
	id := p.Alloc([]byte("reuse"))
	if id != 2 {
		t.Fatalf("Alloc reused slot %d, want 2", id)
	}
	if !bytes.Equal(old2, old2Copy) {
		t.Fatal("freed page's bytes changed after slot reuse")
	}
	if got := p.Read(2); !bytes.Equal(got[:5], []byte("reuse")) {
		t.Fatalf("reused slot content = %q", got[:5])
	}
	wantTail(2)

	// Appending grows past the base region.
	id = p.Alloc([]byte("tail"))
	if int(id) != n {
		t.Fatalf("tail alloc got id %d, want %d", id, n)
	}
	wantTail(3)

	// Freeing heap pages gives their bytes back at once; the rewritten
	// base page counts as heap, the untouched ones as mapped.
	p.Free([]PageID{1, id})
	wantTail(1)
	p.Free([]PageID{0})
	wantTail(1)
	if p.NumPages() != n-2 || p.MappedBytes() != n*ps {
		t.Fatalf("NumPages=%d MappedBytes=%d", p.NumPages(), p.MappedBytes())
	}
	if got := p.Read(3); int(binary.LittleEndian.Uint32(got)) != 3 || &got[0] != &m.Data()[3*ps] {
		t.Fatal("live mapped page disturbed by frees")
	}
}

func TestFileStoreSectionBounds(t *testing.T) {
	m := writeTempPages(t, 4, 64)
	if _, err := NewMapped(m, 0, 5, 64); err == nil {
		t.Error("section past the mapping accepted")
	}
	if _, err := NewMapped(m, 128, 4, 64); err == nil {
		t.Error("offset section past the mapping accepted")
	}
	p, err := NewMapped(m, 128, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Read(0); int(binary.LittleEndian.Uint32(got)) != 2 {
		t.Error("section offset not honored")
	}
}

// TestHeapStoreLockFreeRead exercises concurrent lock-free reads against
// allocation, free and slot reuse under the epoch discipline (readers
// only ever read ids they were handed, frees only cover ids no reader
// holds), on an in-heap and a mapped pager. Run with -race.
func TestHeapStoreLockFreeRead(t *testing.T) {
	const ps, nstable = 64, 32
	heap := New(ps)
	for i := 0; i < nstable; i++ {
		page := make([]byte, ps)
		page[ps-1] = byte(i + 1)
		heap.Alloc(page)
	}
	mapped, err := NewMapped(writeTempPages(t, nstable, ps), 0, nstable, ps)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Pager{"heap": heap, "mapped": mapped} {
		t.Run(name, func(t *testing.T) {
			const readers = 4
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := (i + seed) % nstable
						// Both pagers end page i with byte i+1.
						if b := p.Read(PageID(id)); b[ps-1] != byte(id+1) {
							t.Errorf("page %d ends with %d", id, b[ps-1])
							return
						}
					}
				}(r)
			}
			// Mutator: churn private pages (alloc, write, free, reuse)
			// while the readers hammer the stable ones.
			for i := 0; i < 2000; i++ {
				ids := []PageID{p.Alloc([]byte("a")), p.Alloc([]byte("b"))}
				p.WriteAt(ids[0], 1, []byte("c"))
				p.Free(ids)
			}
			close(stop)
			wg.Wait()
			if p.NumPages() != nstable {
				t.Fatalf("NumPages = %d, want %d", p.NumPages(), nstable)
			}
		})
	}
}

func TestMappingDropAndResident(t *testing.T) {
	const n = 64
	ps := os.Getpagesize()
	m := writeTempPages(t, n, ps)
	p, err := NewMapped(m, 0, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_ = p.Peek(PageID(i))[0]
	}
	if res, ok := p.Resident(); ok && res == 0 {
		t.Error("no resident bytes after touching every page")
	}
	if m.Mapped() {
		if dropped := p.DropCaches(); dropped != n*ps {
			t.Errorf("DropCaches advised %d bytes, want %d", dropped, n*ps)
		}
	}
	// Pages must still read correctly after the drop (refault).
	for i := 0; i < n; i++ {
		got := p.Peek(PageID(i))
		if int(binary.LittleEndian.Uint32(got)) != i {
			t.Fatalf("page %d corrupted by DropCaches", i)
		}
	}
}
