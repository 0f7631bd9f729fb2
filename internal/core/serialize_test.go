package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/wire"
)

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	domain := geom.Square(1000)
	objs := randObjects(rng, 150, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)

	var buf wire.Buffer
	ix.Save(&buf)
	loaded, err := LoadUVIndex(wire.NewReader(buf.Bytes()), ix.store)
	if err != nil {
		t.Fatal(err)
	}

	// Same bytes when saved again.
	var again wire.Buffer
	loaded.Save(&again)
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-saved index differs from the stream it was loaded from")
	}
	// Same shape.
	a, b := ix.Stats(), loaded.Stats()
	if a != b {
		t.Fatalf("stats differ after round trip: %+v vs %+v", a, b)
	}
	// Same cr sets.
	for id := int32(0); int(id) < len(objs); id++ {
		x, y := ix.CRObjects(id), loaded.CRObjects(id)
		if len(x) != len(y) {
			t.Fatalf("object %d: cr sizes differ", id)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("object %d: cr sets differ", id)
			}
		}
	}
	// Same answers.
	for k := 0; k < 50; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		a1, _, err := ix.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := loaded.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("query %v: answers differ after reload", q)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("query %v: answers differ: %v vs %v", q, a1, a2)
			}
		}
	}
	// Live inserts keep validating on the loaded index.
	if _, err := loaded.InsertLeafLive(999); err == nil {
		t.Error("invalid live insert accepted after load")
	}
}

func TestIndexLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	objs := randObjects(rng, 40, 1000, 20)
	ix, _ := buildIndex(t, objs, geom.Square(1000), StrategyIC)
	var buf wire.Buffer
	ix.Save(&buf)
	data := buf.Bytes()

	// Wrong magic.
	bad := append([]byte{9, 9, 9, 9}, data[4:]...)
	if _, err := LoadUVIndex(wire.NewReader(bad), ix.store); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at many offsets must error, never panic.
	for _, cut := range []int{0, 4, 8, 20, len(data) / 2, len(data) - 1} {
		if _, err := LoadUVIndex(wire.NewReader(data[:cut]), ix.store); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Store size mismatch.
	small := makeStore(t, objs[:10])
	if _, err := LoadUVIndex(wire.NewReader(data), small); err == nil {
		t.Error("store size mismatch accepted")
	}
}

// TestOpenUVIndexSnapshotRejectsLeafPageSize: a snapshot section whose
// pages are too small for one leaf tuple is refused with an error, not
// a division by zero.
func TestOpenUVIndexSnapshotRejectsLeafPageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(907))
	objs := randObjects(rng, 40, 1000, 20)
	ix, _ := buildIndex(t, objs, geom.Square(1000), StrategyIC)
	manifest, pages := ix.SnapshotManifest()
	const pageSizeOff = 4*8 + 4 + 8 // past the domain, M and Tθ
	const small = 30
	binary.LittleEndian.PutUint32(manifest[pageSizeOff:], small)
	pg := pager.New(small)
	for range pages {
		pg.Alloc(make([]byte, small))
	}
	if _, err := OpenUVIndexSnapshot(manifest, ix.store, ix.CR(), pg); !errors.Is(err, agrid.ErrPageCapacity) {
		t.Fatalf("err = %v, want ErrPageCapacity", err)
	}
}
