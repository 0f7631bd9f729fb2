package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// FuzzLoadUVIndex: arbitrary bytes fed to the index loader must error
// cleanly, never panic; a valid stream must round-trip.
func FuzzLoadUVIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	objs := randObjects(rng, 12, 500, 15)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		f.Fatal(err)
	}
	tree := BuildHelperRTree(store, 16)
	ix, _, err := Build(store, geom.Square(500), tree, DefaultBuildOptions())
	if err != nil {
		f.Fatal(err)
	}
	var valid wire.Buffer
	ix.Save(&valid)
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:20])
	// Pages of 8 bytes hold no leaf tuple.
	const pageSizeOff = 4 + 4 + 4*8 + 4 + 8 // past magic, version, domain, M and Tθ
	small := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(small[pageSizeOff:], 8)
	f.Add(small)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadUVIndex(wire.NewReader(data), store)
		if err != nil {
			return
		}
		// A successfully loaded index must answer queries without
		// panicking.
		if _, _, err := loaded.PNN(geom.Pt(250, 250)); err != nil {
			t.Logf("query on loaded index: %v", err)
		}
	})
}
