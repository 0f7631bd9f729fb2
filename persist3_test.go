package uvdiagram_test

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"uvdiagram"
)

// TestSaveLoad3RoundTrip: a 3-D database loads back to the same answers,
// and the stream format is frozen — the stream an earlier release wrote
// (testdata/legacy/README.md) loads too, and saving what was loaded
// reproduces either stream byte for byte.
func TestSaveLoad3RoundTrip(t *testing.T) {
	db := build3DB(t, 120, 21)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(legacyPath("db3.uvd3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		db     *uvdiagram.DB3
		stream []byte
	}{
		{"fresh", db, buf.Bytes()},
		{"legacy", build3DB(t, 60, 21), legacy},
	} {
		db := tc.db
		got, err := uvdiagram.Load3(bytes.NewReader(tc.stream))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), tc.stream) {
			t.Fatalf("%s: re-saved database differs from the stream it was loaded from", tc.name)
		}
		if got.Len() != db.Len() {
			t.Fatalf("%s: loaded %d objects, want %d", tc.name, got.Len(), db.Len())
		}
		if got.Domain() != db.Domain() {
			t.Fatalf("%s: domain %v, want %v", tc.name, got.Domain(), db.Domain())
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			q := uvdiagram.Pt3(rng.Float64()*200, rng.Float64()*200, rng.Float64()*200)
			a, _, err := db.PNN(q)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := got.PNN(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s: q=%v: %v vs %v after reload", tc.name, q, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: q=%v answer %d: %v vs %v after reload", tc.name, q, i, a[i], b[i])
				}
			}
		}
	}
}

func TestLoad3Garbage(t *testing.T) {
	if _, err := uvdiagram.Load3(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := uvdiagram.Load3(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Fatal("garbage stream accepted")
	}
	// Truncations of a valid stream must error, never panic.
	db := build3DB(t, 20, 22)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 9, 50, len(data) / 2, len(data) - 3} {
		if _, err := uvdiagram.Load3(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzLoad3 feeds arbitrary bytes (seeded with the committed stream, a
// fresh one and one whose pages hold no leaf tuple) through Load3: it
// must return an error or a queryable database, never panic.
func FuzzLoad3(f *testing.F) {
	legacy, err := os.ReadFile(legacyPath("db3.uvd3"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	var fresh bytes.Buffer
	if err := build3DB(f, 20, 22).Save(&fresh); err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Bytes())
	f.Add(fresh.Bytes()[:len(fresh.Bytes())/2])
	f.Add(withPageSize(f, "db3.uvd3", uvocMagic, uvocPageSizeOff, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := uvdiagram.Load3(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, _, err := db.PNN(uvdiagram.Pt3(100, 100, 100)); err != nil {
			t.Logf("PNN on fuzzed-but-loadable database: %v", err)
		}
	})
}
