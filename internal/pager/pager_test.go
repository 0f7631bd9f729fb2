package pager

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPagerAllocReadWrite(t *testing.T) {
	p := New(64)
	if p.PageSize() != 64 {
		t.Fatalf("PageSize = %d", p.PageSize())
	}
	id := p.Alloc([]byte("hello"))
	got := p.Read(id)
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Errorf("Read = %q", got[:5])
	}
	if len(got) != 64 {
		t.Errorf("page length = %d", len(got))
	}
	p.WriteAt(id, 1, []byte("ip"))
	got = p.Read(id)
	if !bytes.Equal(got[:6], []byte("hiplo\x00")) {
		t.Errorf("after WriteAt, Read = %q", got[:5])
	}
	if p.Reads() != 2 || p.Writes() != 2 {
		t.Errorf("counters = %d reads, %d writes", p.Reads(), p.Writes())
	}
	p.ResetStats()
	if p.Reads() != 0 || p.Writes() != 0 {
		t.Error("ResetStats did not zero counters")
	}
	if p.NumPages() != 1 || p.BytesOnDisk() != 64 {
		t.Errorf("NumPages=%d BytesOnDisk=%d", p.NumPages(), p.BytesOnDisk())
	}
}

func TestPagerDefaultSize(t *testing.T) {
	if New(0).PageSize() != DefaultPageSize {
		t.Error("zero size should default")
	}
	if New(-5).PageSize() != DefaultPageSize {
		t.Error("negative size should default")
	}
}

func TestPagerOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize Alloc did not panic")
		}
	}()
	New(8).Alloc(make([]byte, 9))
}

// TestFreeReleasesStorage checks that Free gives a page's buffer back at
// once: the freed slot holds nothing, reusing it installs a fresh
// buffer (a reader of the old one keeps its bytes), and a live page is
// untouched.
func TestFreeReleasesStorage(t *testing.T) {
	p := New(128)
	a := p.Alloc([]byte("a"))
	b := p.Alloc([]byte("b"))
	old := p.Read(a)
	p.Free([]PageID{a})
	if p.Peek(a) != nil {
		t.Fatal("freed slot still holds its buffer")
	}
	if p.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", p.NumPages())
	}
	if id := p.Alloc([]byte("c")); id != a {
		t.Fatalf("Alloc after Free = %d, want %d", id, a)
	}
	if got := p.Read(a); got[0] != 'c' || &got[0] == &old[0] {
		t.Fatal("reused slot did not get a fresh buffer")
	}
	if old[0] != 'a' {
		t.Fatal("old buffer rewritten by slot reuse")
	}
	if got := p.Read(b); got[0] != 'b' {
		t.Fatal("live page corrupted by Free")
	}
}

// TestFreedPageMisusePanics checks that freeing a page twice or writing
// to a freed page fails loudly instead of corrupting the free list or
// dropping the write.
func TestFreedPageMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(p *Pager, id PageID){
		"double free":    func(p *Pager, id PageID) { p.Free([]PageID{id}) },
		"write to freed": func(p *Pager, id PageID) { p.WriteAt(id, 0, []byte("x")) },
	} {
		t.Run(name, func(t *testing.T) {
			p := New(64)
			id := p.Alloc([]byte("x"))
			p.Free([]PageID{id})
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			misuse(p, id)
		})
	}
}

func TestPagerPeekDoesNotCount(t *testing.T) {
	p := New(64)
	id := p.Alloc([]byte("x"))
	p.ResetStats()
	if got := p.Peek(id); got[0] != 'x' {
		t.Fatal("Peek content")
	}
	if p.Reads() != 0 {
		t.Fatalf("Peek counted as %d reads", p.Reads())
	}
}

func TestLeafTupleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		ts := make([]LeafTuple, n)
		for i := range ts {
			ts[i] = LeafTuple{
				ID:      rng.Int31(),
				CX:      rng.NormFloat64() * 1e4,
				CY:      rng.NormFloat64() * 1e4,
				R:       rng.Float64() * 100,
				Pointer: rng.Uint64(),
			}
		}
		buf := EncodeLeafTuples(ts)
		got, err := AppendLeafTuples(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("decoded %d tuples, want %d", len(got), n)
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Fatalf("tuple %d: %+v vs %+v", i, got[i], ts[i])
			}
		}
	}
}

func TestDecodeLeafTuplesErrors(t *testing.T) {
	if _, err := AppendLeafTuples(nil, []byte{1}); err == nil {
		t.Error("short page accepted")
	}
	// Count says 5 but no payload.
	if _, err := AppendLeafTuples(nil, []byte{5, 0}); err == nil {
		t.Error("truncated page accepted")
	}
}

func TestTuplesPerPage(t *testing.T) {
	n := TuplesPerPage(DefaultPageSize)
	if n <= 0 {
		t.Fatalf("TuplesPerPage = %d", n)
	}
	if 2+n*LeafTupleSize > DefaultPageSize {
		t.Error("claimed capacity does not fit in a page")
	}
	if 2+(n+1)*LeafTupleSize <= DefaultPageSize {
		t.Error("capacity is not maximal")
	}
}

func TestObjectRecordRoundTrip(t *testing.T) {
	err := quick.Check(func(id int32, cx, cy float64, r float64, seed int64) bool {
		if math.IsNaN(cx) || math.IsNaN(cy) || math.IsNaN(r) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		ws := make([]float64, 1+rng.Intn(30))
		for i := range ws {
			ws[i] = rng.Float64()
		}
		rec := ObjectRecord{ID: id, CX: cx, CY: cy, R: r, Weights: ws}
		got, err := DecodeObjectRecord(EncodeObjectRecord(rec))
		if err != nil {
			return false
		}
		if got.ID != rec.ID || got.CX != rec.CX || got.CY != rec.CY || got.R != rec.R {
			return false
		}
		if len(got.Weights) != len(ws) {
			return false
		}
		for i := range ws {
			if got.Weights[i] != ws[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDecodeObjectRecordErrors(t *testing.T) {
	if _, err := DecodeObjectRecord(make([]byte, 10)); err == nil {
		t.Error("short object page accepted")
	}
	buf := make([]byte, 30)
	buf[28] = 200 // claims 200 weights
	if _, err := DecodeObjectRecord(buf); err == nil {
		t.Error("truncated object page accepted")
	}
}
