package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
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

// TestDecodeCRSets: the registry decoder carves every set from one
// array with cap == len, and with tombstones given it refuses each
// registry no Build or mutation leaves behind.
func TestDecodeCRSets(t *testing.T) {
	encode := func(sets ...[]int32) []byte {
		var w wire.Buffer
		for _, s := range sets {
			agrid.PutIDs(&w, s)
		}
		return w.Bytes()
	}
	live := make([]bool, 4)
	good := encode([]int32{1, 3}, []int32{0, 2, 3}, nil, []int32{0})
	sets, err := DecodeCRSets(wire.NewReader(good), 4, live)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 3}, {0, 2, 3}, nil, {0}}
	for i, s := range sets {
		if !slices.Equal(s, want[i]) || cap(s) != len(s) {
			t.Fatalf("set %d = %v (cap %d), want %v with cap == len", i, s, cap(s), want[i])
		}
	}
	if a := testing.AllocsPerRun(10, func() { DecodeCRSets(wire.NewReader(good), 4, live) }); a > 2 {
		t.Fatalf("decoding makes %v allocations, want 2: the sets and their one array", a)
	}

	deadTwo := []bool{false, false, true, false}
	for _, c := range []struct {
		name string
		data []byte
		dead []bool
		want string
	}{
		{"id out of range", encode([]int32{1, 4}, nil, nil, nil), live, "out of range"},
		{"count past the end", encode([]int32{1, 2})[:6], live, "exceeds"},
		{"tombstone keeps its set", good, deadTwo, "names tombstoned object 2"},
		{"tombstoned with a set", encode(nil, nil, []int32{1}, nil), deadTwo, "tombstoned object 2 has a cr-set"},
		{"not ascending", encode([]int32{3, 1}, nil, nil, nil), live, "not strictly ascending"},
		{"duplicate", encode([]int32{1, 1}, nil, nil, nil), live, "not strictly ascending"},
		{"names itself", encode(nil, []int32{0, 1}, nil, nil), live, "names the object itself"},
	} {
		_, err := DecodeCRSets(wire.NewReader(c.data), 4, c.dead)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// Without tombstones (order-k sets) only the range is checked.
	if _, err := DecodeCRSets(wire.NewReader(encode([]int32{3, 0}, []int32{1}, nil, nil)), 4, nil); err != nil {
		t.Fatalf("unchecked registry refused: %v", err)
	}
}

// TestNewCRStateLayout: the reverse map built by counting equals the
// one appending dependents in ascending id builds, every list has
// cap == len, and growing one list leaves its neighbours intact.
func TestNewCRStateLayout(t *testing.T) {
	sets := [][]int32{{1, 2}, {0, 2}, {0, 1, 3}, nil, {2}}
	cr := NewCRState(sets)
	want := [][]int32{{1, 2}, {0, 2}, {0, 1, 4}, {2}, nil}
	for j, w := range want {
		got := cr.Dependents(int32(j))
		if !slices.Equal(got, w) || cap(got) != len(got) {
			t.Fatalf("Dependents(%d) = %v (cap %d), want %v with cap == len", j, got, cap(got), w)
		}
	}
	cr.AddMember(4, 1) // appends to Dependents(1), whose window is full
	cr.Replace(3, []int32{0, 2})
	want = [][]int32{{1, 2, 3}, {0, 2, 4}, {0, 1, 4, 3}, {2}, nil}
	for j, w := range want {
		if got := cr.Dependents(int32(j)); !slices.Equal(got, w) {
			t.Fatalf("after appends Dependents(%d) = %v, want %v", j, got, w)
		}
	}
}
