package uvdiagram_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/agrid"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/pager"
)

// Every entry point that sizes leaf pages rejects a page size whose
// pages hold no leaf tuple (8 or 30 bytes), or more than a page's
// uint16 tuple count can number, with an error instead of a division
// by zero or a wrapped count.

// withPageSize returns a copy of the committed fixture name with the
// page-size field of its embedded index stream — at off bytes past the
// stream's little-endian magic — set to size.
func withPageSize(t testing.TB, name string, magic uint32, off int, size uint32) []byte {
	t.Helper()
	data, err := os.ReadFile(legacyPath(name))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, binary.LittleEndian.AppendUint32(nil, magic))
	if at < 0 {
		t.Fatalf("%s: no index stream", name)
	}
	field := data[at+off : at+off+4]
	if got := binary.LittleEndian.Uint32(field); got != 4096 {
		t.Fatalf("%s: page-size field reads %d, want the default 4096", name, got)
	}
	binary.LittleEndian.PutUint32(field, size)
	return data
}

const (
	uvixMagic = 0x55564958 // "UVIX"
	uvocMagic = 0x55564f43 // "UVOC"
	// Page-size field offsets past the magic: version, then the domain
	// (4 or 6 float64s), M and Tθ.
	uvixPageSizeOff = 4 + 4 + 4*8 + 4 + 8
	uvocPageSizeOff = 4 + 4 + 6*8 + 4 + 8
	// The smallest page sizes whose tuple count a uint16 cannot hold.
	tooManyTuples  = 2 + (pager.MaxLeafTuples+1)*pager.LeafTupleSize
	tooManyTuples3 = 2 + (pager.MaxLeafTuples+1)*pager.LeafTuple3Size
)

func TestBuildRejectsLeafPageSize(t *testing.T) {
	cfg := datagen.Config{N: 60, Side: 2000, Diameter: 30, Seed: 42}
	for _, size := range []int{30, tooManyTuples} {
		for _, shards := range []int{1, 4} {
			_, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), &uvdiagram.Options{PageSize: size, Shards: shards})
			if !errors.Is(err, agrid.ErrPageCapacity) {
				t.Fatalf("page size %d, %d shards: err = %v, want ErrPageCapacity", size, shards, err)
			}
		}
	}
}

func TestBuild3RejectsLeafPageSize(t *testing.T) {
	objs := []uvdiagram.Object3{uvdiagram.NewObject3(0, 50, 50, 50, 2, nil), uvdiagram.NewObject3(1, 150, 150, 150, 2, nil)}
	for _, size := range []int{30, tooManyTuples3} {
		_, err := uvdiagram.Build3(objs, uvdiagram.CubeDomain(200), &uvdiagram.Options3{PageSize: size})
		if !errors.Is(err, agrid.ErrPageCapacity) {
			t.Fatalf("page size %d: err = %v, want ErrPageCapacity", size, err)
		}
	}
}

func TestOpenLegacyRejectsLeafPageSize(t *testing.T) {
	openCorrupt(t, "v2-single page size 8", withPageSize(t, "v2-single.uvdb", uvixMagic, uvixPageSizeOff, 8))
}

func TestLoadOrderKIndexRejectsLeafPageSize(t *testing.T) {
	db, _ := buildSmallDB(t, 40, nil) // the fixture's population
	stream := withPageSize(t, "orderk3.uvix", uvixMagic, uvixPageSizeOff, 8)
	if _, err := uvdiagram.LoadOrderKIndex(bytes.NewReader(stream), db); !errors.Is(err, agrid.ErrPageCapacity) {
		t.Fatalf("err = %v, want ErrPageCapacity", err)
	}
}

func TestLoad3RejectsLeafPageSize(t *testing.T) {
	stream := withPageSize(t, "db3.uvd3", uvocMagic, uvocPageSizeOff, 8)
	if _, err := uvdiagram.Load3(bytes.NewReader(stream)); !errors.Is(err, agrid.ErrPageCapacity) {
		t.Fatalf("err = %v, want ErrPageCapacity", err)
	}
}

// TestCompactRejectsLeafPageSize: Open takes the stored index's page
// size from the file but rebuilds with Options.PageSize, so a Compact
// of a database opened with too small a page fails with an error and
// leaves the database serving.
func TestCompactRejectsLeafPageSize(t *testing.T) {
	_, path := saveSnapshotDB(t, 60, &uvdiagram.Options{Shards: 4})
	db, err := uvdiagram.Open(path, &uvdiagram.Options{Pager: "heap", PageSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Compact(context.Background()); !errors.Is(err, agrid.ErrPageCapacity) {
		t.Fatalf("Compact: err = %v, want ErrPageCapacity", err)
	}
	if _, _, err := db.PNN(uvdiagram.Pt(1000, 1000)); err != nil {
		t.Fatalf("PNN after the failed compaction: %v", err)
	}
}
