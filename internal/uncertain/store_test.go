package uncertain

import (
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

func testObjects(n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = New(int32(i),
			geom.Circle{C: geom.Pt(float64(i)*10, float64(i%5)), R: 1 + float64(i%3)},
			PaperGaussian())
	}
	return objs
}

// TestStoreRoundTrip: a fetched object is bitwise the stored one, and
// objects with equal bars share one pdf (testObjects makes a pdf each).
func TestStoreRoundTrip(t *testing.T) {
	pg := pager.New(pager.DefaultPageSize)
	objs := testObjects(10)
	objs[7].PDF = Uniform(DefaultBins)
	st, err := NewStore(objs, pg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 10 {
		t.Fatalf("Len = %d", st.Len())
	}
	pg.ResetStats()
	for i := int32(0); i < 10; i++ {
		got, err := st.Fetch(i)
		if err != nil {
			t.Fatal(err)
		}
		want := objs[i]
		if got.ID != want.ID || got.Region != want.Region || !samePDF(got.PDF, want.PDF) {
			t.Fatalf("object %d: got %+v, want %+v", i, got, want)
		}
		shared := i != 7 // object 7 alone has the Uniform bars
		if got.PDF != st.At(int(i)).PDF || (got.PDF == st.At(0).PDF) != shared {
			t.Fatalf("object %d: pdf %p, stored %p; object 0's %p", i, got.PDF, st.At(int(i)).PDF, st.At(0).PDF)
		}
	}
	if pg.Reads() != 10 {
		t.Errorf("fetching 10 objects cost %d reads, want 10", pg.Reads())
	}
}

func TestStoreRejectsSparseIDs(t *testing.T) {
	objs := testObjects(3)
	objs[1].ID = 42
	if _, err := NewStore(objs, pager.New(pager.DefaultPageSize)); err == nil {
		t.Error("sparse IDs accepted")
	}
}

func TestStoreFetchUnknown(t *testing.T) {
	st, err := NewStore(testObjects(3), pager.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fetch(99); err == nil {
		t.Error("fetch of unknown id succeeded")
	}
	if _, err := st.Fetch(-1); err == nil {
		t.Error("fetch of negative id succeeded")
	}
}

// TestViewShareCounts: a view's per-shape live counts follow its live
// set through Append, Delete and RemoveLast (of a live and of a dead
// object), each published view keeps its own, a reopened store counts
// its snapshot's live objects, and a pdf the store did not intern is
// held by none.
func TestViewShareCounts(t *testing.T) {
	objs := testObjects(10)
	for i := 6; i < 10; i++ {
		objs[i].PDF = Uniform(DefaultBins)
	}
	st, err := NewStore(objs, pager.New(pager.DefaultPageSize))
	if err != nil {
		t.Fatal(err)
	}
	// check compares the counts of the shapes of objects 0 (Gaussian)
	// and 6 (uniform) in s, as v sees them.
	check := func(label string, s *Store, v *View, wantG, wantU int) {
		t.Helper()
		if g, u := v.Share(s.At(0).PDF), v.Share(s.At(6).PDF); g != wantG || u != wantU {
			t.Fatalf("%s: shares %d Gaussian, %d uniform; want %d, %d", label, g, u, wantG, wantU)
		}
	}
	built := st.View()
	check("built", st, built, 6, 4)
	if n := built.Share(PaperGaussian()); n != 0 {
		t.Fatalf("a pdf the store did not intern is held by %d", n)
	}
	for _, id := range []int32{1, 7, 8} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	check("after deletes", st, st.View(), 5, 2)
	check("the built view, unchanged", st, built, 6, 4)
	if err := st.Append(New(10, geom.Circle{C: geom.Pt(500, 0), R: 2}, Uniform(DefaultBins))); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(New(11, geom.Circle{C: geom.Pt(510, 0), R: 2}, Gaussian(7, 0.5))); err != nil {
		t.Fatal(err)
	}
	check("after appends", st, st.View(), 5, 3)
	if n := st.View().Share(st.At(11).PDF); n != 1 {
		t.Fatalf("a newly interned shape is held by %d, want 1", n)
	}
	reopened := reopenPacked(t, packedPages(t, st), 12, st.View().Tombstones())
	check("reopened", reopened, reopened.View(), 5, 3)
	if err := st.RemoveLast(); err != nil {
		t.Fatal(err)
	}
	check("after RemoveLast", st, st.View(), 5, 3)
	if err := st.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveLast(); err != nil { // a dead object: no count moves
		t.Fatal(err)
	}
	check("after RemoveLast of a dead object", st, st.View(), 5, 2)
}
