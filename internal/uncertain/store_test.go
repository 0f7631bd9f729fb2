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
