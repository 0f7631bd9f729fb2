package uvdiagram

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"unsafe"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/pager"
)

// TestTailBytesExact checks that BufferPoolStats().TailBytes of an
// mmap-opened database is the heap its pagers hold now, under churn: page
// size × the slots holding a heap buffer rather than a view into the
// snapshot mapping, and never more than the live disk footprint. A tail
// counter that only grows reads tens of MB here against about 2 MB held.
// After a Compact the rebuilt index and R-tree sections live in the heap
// in full, and count as tail too.
func TestTailBytesExact(t *testing.T) {
	cfg := datagen.Config{N: 8000, Seed: 20100301}
	all := datagen.Uniform(cfg)
	built, err := Build(all, cfg.Domain(), &Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.uv6")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path, &Options{Pager: "mmap"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pairs := 1000
	if RaceEnabled {
		pairs = 200 // the race detector slows each pair about tenfold
	}
	rng := rand.New(rand.NewSource(5))
	live := make([]int32, len(all))
	for i := range live {
		live[i] = int32(i)
	}
	for i := range pairs {
		k := rng.Intn(len(live))
		id := live[k]
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
		o := all[id]
		o.ID = db.NextID()
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
		all = append(all, o)
		live[k] = o.ID
		if (i+1)%(pairs/4) == 0 {
			checkTailBytes(t, db)
		}
	}
	st := db.BufferPoolStats()
	t.Logf("after %d pairs: TailBytes %d, DiskBytes %d", pairs, st.TailBytes, st.DiskBytes)
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkTailBytes(t, db)
	st = db.BufferPoolStats()
	t.Logf("after Compact: TailBytes %d, DiskBytes %d", st.TailBytes, st.DiskBytes)
}

// checkTailBytes counts the slots of db's pagers that hold a heap buffer
// and compares the count with BufferPoolStats().TailBytes.
func checkTailBytes(t *testing.T, db *DB) {
	t.Helper()
	data := db.mapping.Data()
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	var heapBytes int64
	for _, pg := range db.pagers(db.state()) {
		ps := pg.PageSize()
		// Every live slot past the base region is a heap buffer; a base
		// slot is one unless it still views the mapping.
		heap := pg.NumPages()
		for id := range int(pg.MappedBytes()) / ps {
			if b := pg.Peek(pager.PageID(id)); b != nil {
				if a := uintptr(unsafe.Pointer(&b[0])); a >= lo && a < hi {
					heap--
				}
			}
		}
		heapBytes += int64(heap) * int64(ps)
	}
	st := db.BufferPoolStats()
	if st.TailBytes != heapBytes {
		t.Fatalf("TailBytes = %d, want %d (the slots holding a heap buffer)", st.TailBytes, heapBytes)
	}
	if st.TailBytes > st.DiskBytes {
		t.Fatalf("TailBytes %d exceeds DiskBytes %d", st.TailBytes, st.DiskBytes)
	}
	if st.TailBytes == 0 {
		t.Fatal("no heap pages after churn")
	}
}
