package uncertain

import (
	"bytes"
	"sync"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// pageOf returns the page holding object id's record in v.
func pageOf(v *View, id int32) pager.PageID { return v.at[id].page }

// packedPages returns the pages Pack writes for st at the default page
// size.
func packedPages(t *testing.T, st *Store) [][]byte {
	t.Helper()
	var pages [][]byte
	n, err := st.View().Pack(pager.DefaultPageSize, func(p []byte) error {
		pages = append(pages, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pages) {
		t.Fatalf("Pack reports %d pages, emitted %d", n, len(pages))
	}
	return pages
}

// reopenPacked opens pages as OpenStoreSnapshot would off a snapshot.
func reopenPacked(t *testing.T, pages [][]byte, n int, dead []bool) *Store {
	t.Helper()
	pg := pager.New(pager.DefaultPageSize)
	for _, p := range pages {
		pg.Alloc(p)
	}
	st, err := OpenStoreSnapshot(pg, n, dead)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameObject compares region and pdf bitwise.
func sameObject(t *testing.T, got, want Object) {
	t.Helper()
	if got.ID != want.ID || got.Region != want.Region || !samePDF(got.PDF, want.PDF) {
		t.Fatalf("object %d: got %+v, want %+v", want.ID, got, want)
	}
}

// TestStorePacksRecords: records of the paper's 20 bars (190 bytes)
// pack 21 to a 4 KB page, and objects sharing a page share its id.
func TestStorePacksRecords(t *testing.T) {
	const n = 50
	pg := pager.New(pager.DefaultPageSize)
	st, err := NewStore(testObjects(n), pg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pg.NumPages(), (n+20)/21; got != want {
		t.Fatalf("%d objects on %d pages, want %d", n, got, want)
	}
	if pg.Writes() != n {
		t.Errorf("building the store cost %d writes for %d records", pg.Writes(), n)
	}
	for i := int32(0); i < n; i++ {
		if got, want := pageOf(st.View(), i), pager.PageID(i/21); got != want {
			t.Fatalf("object %d on page %d, want %d", i, got, want)
		}
	}
	v := st.View()
	if got := v.Pages([]int32{0, 20, 3}); got != 1 {
		t.Errorf("Pages of three records on page 0 = %d", got)
	}
	if got := v.Pages([]int32{21, 0, 42, 20, 22}); got != 3 {
		t.Errorf("Pages of records on pages 1, 0, 2 = %d", got)
	}
}

// TestStorePackRoundTrip: the pages Pack writes reopen to the same
// objects and re-pack to the same bytes, whether the store packed them
// itself, took appends or holds records of several sizes.
func TestStorePackRoundTrip(t *testing.T) {
	mixed := testObjects(40)
	for i := range mixed {
		if i%3 == 1 {
			mixed[i].PDF = Uniform(1 + i%7*9) // 1 … 55 bars
		}
	}
	for name, objs := range map[string][]Object{"uniform": testObjects(64), "mixed": mixed} {
		st, err := NewStore(objs[:len(objs)-5], pager.New(pager.DefaultPageSize))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs[len(objs)-5:] {
			if err := st.Append(o); err != nil {
				t.Fatal(err)
			}
		}
		dead := make([]bool, len(objs))
		dead[4] = true
		if err := st.Delete(4); err != nil {
			t.Fatal(err)
		}
		pages := packedPages(t, st)
		re := reopenPacked(t, pages, len(objs), dead)
		for i, want := range objs {
			sameObject(t, re.At(i), want)
			if i == 4 {
				continue
			}
			got, err := re.Fetch(int32(i))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameObject(t, got, want)
		}
		if _, err := re.Fetch(4); err == nil {
			t.Fatalf("%s: reopened store fetched a tombstoned object", name)
		}
		again := packedPages(t, re)
		if len(again) != len(pages) {
			t.Fatalf("%s: re-pack has %d pages, want %d", name, len(again), len(pages))
		}
		for i := range pages {
			if !bytes.Equal(pages[i], again[i]) {
				t.Fatalf("%s: re-packed page %d differs", name, i)
			}
		}
	}
}

// TestStoreReopenedAppends: a store opened off snapshot pages starts
// appends on a fresh page and never writes the pages it was opened on.
func TestStoreReopenedAppends(t *testing.T) {
	st, err := NewStore(testObjects(30), pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	pages := packedPages(t, st)
	re := reopenPacked(t, pages, 30, nil)
	for i := 0; i < 3; i++ {
		o := New(int32(re.Len()), geom.Circle{C: geom.Pt(7, 7), R: 3}, nil)
		if err := re.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if got := pageOf(re.View(), 30); got != pager.PageID(len(pages)) {
		t.Fatalf("first append after open on page %d, want fresh page %d", got, len(pages))
	}
	if pageOf(re.View(), 31) != pageOf(re.View(), 30) || pageOf(re.View(), 32) != pageOf(re.View(), 30) {
		t.Fatal("later appends did not share the fresh page")
	}
	for i, p := range pages {
		if !bytes.Equal(re.Pager().Peek(pager.PageID(i)), p) {
			t.Fatalf("opened page %d was rewritten", i)
		}
	}
}

// TestStoreRemoveLastKeepsBytes: after an insert rollback the next
// append writes past the rolled-back record, so a reader still holding
// the longer view reads that record intact.
func TestStoreRemoveLastKeepsBytes(t *testing.T) {
	st := tombstoneStore(t, 3)
	next := New(3, geom.Circle{C: geom.Pt(1, 1), R: 2}, nil)
	if err := st.Append(next); err != nil {
		t.Fatal(err)
	}
	stale := st.View()
	if err := st.RemoveLast(); err != nil {
		t.Fatal(err)
	}
	other := New(3, geom.Circle{C: geom.Pt(500, 500), R: 9}, nil)
	if err := st.Append(other); err != nil {
		t.Fatal(err)
	}
	got, err := stale.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, got, next)
	if got, err = st.Fetch(3); err != nil {
		t.Fatal(err)
	}
	sameObject(t, got, other)
}

// TestStoreAppendConcurrentMutation: Append writes into the unused end
// of the page readers are fetching from, and RemoveLast rolls a record
// back. Readers pin a view and fetch every record of its last page,
// each of which must still read as the object that view published; the
// writer appends, rolls back and appends a different object under the
// same id, so a rollback whose bytes were rewritten in place would read
// as the newer object. Under -race this also checks that no append
// writes a byte a reader loads.
func TestStoreAppendConcurrentMutation(t *testing.T) {
	st := tombstoneStore(t, 2)
	obj := func(id int32, gen int) Object {
		return New(id, geom.Circle{C: geom.Pt(float64(id), float64(gen)), R: 1}, nil)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.View()
				last := int32(v.Len() - 1)
				for round := 0; round < 3; round++ {
					for id := last; id >= 0 && pageOf(v, id) == pageOf(v, last); id-- {
						o, err := v.Fetch(id)
						if err != nil || o.ID != id || o.Region != v.At(int(id)).Region {
							t.Errorf("fetch %d: got %v at %v (%v), the view published %v", id, o.ID, o.Region, err, v.At(int(id)).Region)
							return
						}
					}
				}
			}
		}()
	}
	for id := int32(2); id < 200; id++ {
		if err := st.Append(obj(id, 0)); err != nil {
			t.Fatal(err)
		}
		if id%3 != 0 {
			continue
		}
		if err := st.RemoveLast(); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(obj(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestOpenStoreSnapshotRejectsDamage: a store whose pages do not hold
// exactly the promised records fails to open.
func TestOpenStoreSnapshotRejectsDamage(t *testing.T) {
	st, err := NewStore(testObjects(30), pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	pages := packedPages(t, st)
	open := func(pages [][]byte, n int) error {
		pg := pager.New(pager.DefaultPageSize)
		for _, p := range pages {
			pg.Alloc(p)
		}
		_, err := OpenStoreSnapshot(pg, n, nil)
		return err
	}
	if err := open(pages, 31); err == nil {
		t.Error("opened 31 objects off pages of 30")
	}
	if err := open(pages, 20); err == nil {
		t.Error("opened 20 objects off pages of 30, leaving a page unread")
	}
	if err := open(append(pages, make([]byte, pager.DefaultPageSize)), 30); err == nil {
		t.Error("opened with a trailing empty page")
	}
	swapped := [][]byte{pages[1], pages[0]}
	if err := open(swapped, 30); err == nil {
		t.Error("opened with pages out of order")
	}
}
