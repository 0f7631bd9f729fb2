package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// TestKNNCandidatesMatchBruteForce: the k-th smallest distmax bound and
// the candidate set must match a brute-force computation exactly.
func TestKNNCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := randomItems(rng, 400, 1000)
	tr := BulkLoad(items, 10, pager.New(0))
	for trial := 0; trial < 40; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(8)
		cands, bound := tr.KNNCandidates(q, k)

		maxes := make([]float64, len(items))
		for i, it := range items {
			maxes[i] = q.Dist(it.MBC.C) + it.MBC.R
		}
		sort.Float64s(maxes)
		wantBound := maxes[k-1]
		if bound != wantBound {
			t.Fatalf("trial %d k=%d: bound %v, want %v", trial, k, bound, wantBound)
		}
		want := map[int32]bool{}
		for _, it := range items {
			if math.Max(0, q.Dist(it.MBC.C)-it.MBC.R) <= wantBound {
				want[it.ID] = true
			}
		}
		got := map[int32]bool{}
		for _, it := range cands {
			got[it.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d k=%d: %d candidates, want %d", trial, k, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: candidate %d missing", trial, id)
			}
		}
	}
}

func TestKNNCandidatesDegenerate(t *testing.T) {
	tr := BulkLoad(nil, 10, pager.New(0))
	if c, b := tr.KNNCandidates(geom.Pt(0, 0), 3); c != nil || !math.IsInf(b, 1) {
		t.Errorf("empty tree: %v %v", c, b)
	}
	rng := rand.New(rand.NewSource(37))
	items := randomItems(rng, 5, 100)
	tr = BulkLoad(items, 10, pager.New(0))
	if c, _ := tr.KNNCandidates(geom.Pt(50, 50), 100); len(c) != 5 {
		t.Errorf("k>n should return all items, got %d", len(c))
	}
	if c, _ := tr.KNNCandidates(geom.Pt(50, 50), 0); c != nil {
		t.Errorf("k=0 returned %v", c)
	}
	// k=1 must equal PNNCandidates.
	c1, b1 := tr.KNNCandidates(geom.Pt(50, 50), 1)
	c2, b2 := tr.PNNCandidates(geom.Pt(50, 50))
	if math.Abs(b1-b2) > 1e-12 || len(c1) != len(c2) {
		t.Errorf("k=1 (%d cands, bound %v) != PNN (%d cands, bound %v)", len(c1), b1, len(c2), b2)
	}
}
