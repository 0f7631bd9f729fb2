package core

import (
	"math/rand"
	"strings"
	"testing"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// TestPNNCorruptLeafPage: a corrupted leaf page surfaces as an error
// from PNN, not a panic or silent wrong answer.
func TestPNNCorruptLeafPage(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	domain := geom.Square(1000)
	objs := randObjects(rng, 120, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)

	// Find the leaf for a query point and clobber its first page with a
	// tuple count far larger than the payload.
	q := geom.Pt(333, 777)
	var pages []pager.PageID
	ix.g.Leaves(func(r geom.Rect) bool { return r.Contains(q) }, func(_ geom.Rect, _ int, leaf *agrid.Node) {
		pages = leaf.Pages()
	})
	if len(pages) == 0 {
		t.Fatal("leaf without pages")
	}
	ix.Pager().Write(pages[0], []byte{0xff, 0xff}) // count = 65535, no payload

	_, _, err := ix.PNN(q)
	if err == nil {
		t.Fatal("PNN on corrupted page succeeded")
	}
	if !strings.Contains(err.Error(), "page") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestPNNCorruptObjectPage: a corrupted object record is likewise an
// error.
func TestPNNCorruptObjectPage(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	domain := geom.Square(1000)
	objs := randObjects(rng, 60, 1000, 20)
	st := makeStore(t, objs)
	opts := DefaultBuildOptions()
	opts.SeedK = 40
	opts.Index.PageSize = 512
	ix, _, err := Build(st, domain, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every object page: whichever candidate the query fetches
	// first will fail to decode.
	for id := int32(0); int(id) < st.Len(); id++ {
		st.Pager().Write(st.PageOf(id), []byte{1, 2, 3})
	}
	if _, _, err := ix.PNN(geom.Pt(500, 500)); err == nil {
		t.Fatal("PNN with corrupted object store succeeded")
	}
}

// TestStorePageTooSmall: a pdf that cannot fit the store's page size is
// rejected up front with a clear error rather than a pager panic.
func TestStorePageTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	objs := randObjects(rng, 3, 1000, 20)
	if _, err := uncertain.NewStore(objs, pager.New(64)); err == nil {
		t.Fatal("oversized record accepted")
	} else if !strings.Contains(err.Error(), "page") {
		t.Errorf("unhelpful error: %v", err)
	}
}
