package core

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/prob"
)

// TestDensePNNCorrectness pins the regime that broke the original seed
// selection: uncertainty regions large enough that most objects overlap
// several neighbors (the paper's 40k-object setting). Queries must stay
// exact and pruning must stay effective.
func TestDensePNNCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1101))
	domain := geom.Square(1000)
	// 150 objects of radius up to 60 in 1000²: ~4 overlaps per object.
	objs := randObjects(rng, 150, 1000, 60)
	overlaps := 0
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			if objs[i].Region.Overlaps(objs[j].Region) {
				overlaps++
			}
		}
	}
	if overlaps < len(objs) {
		t.Fatalf("instance not dense enough: only %d overlapping pairs", overlaps)
	}

	ix, stats := buildIndex(t, objs, domain, StrategyIC)
	// Pruning must survive density (the seed rule): cr-sets well below n.
	if stats.AvgCR() > float64(len(objs))/2 {
		t.Errorf("pruning collapsed on dense input: avg |CR| = %.1f of %d", stats.AvgCR(), len(objs))
	}
	for k := 0; k < 100; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		answers, _, err := ix.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := prob.AnswerSet(objs, q)
		if len(answers) != len(want) {
			t.Fatalf("query %v: %d answers, want %d", q, len(answers), len(want))
		}
		for i, a := range answers {
			if int(a.ID) != want[i] {
				t.Fatalf("query %v: ids differ", q)
			}
		}
	}
}

// TestDenseSeedsNeverOverlap: under heavy overlap, seed selection must
// still produce only edge-contributing seeds.
func TestDenseSeedsNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1103))
	objs := randObjects(rng, 200, 1000, 70)
	tree := buildTestTree(objs)
	var sc DeriveScratch
	for i := 0; i < len(objs); i += 7 {
		sc.selectSeeds(tree, objs[i], geom.Square(1000), 100, 8)
		for _, id := range sc.seeds {
			if objs[i].Region.Overlaps(objs[id].Region) {
				t.Fatalf("object %d got overlapping seed %d", i, id)
			}
		}
	}
}

// TestAllOverlapping: the degenerate extreme — every pair overlaps, no
// UV-edges exist at all, every object can be the NN of every point.
func TestAllOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(1109))
	domain := geom.Square(100)
	objs := randObjects(rng, 12, 100, 45)
	for i := range objs {
		objs[i].Region.R = 60 // force total overlap
	}
	ix, stats := buildIndex(t, objs, domain, StrategyIC)
	if stats.SumCR != 0 {
		t.Errorf("no edges exist but SumCR = %d", stats.SumCR)
	}
	for k := 0; k < 30; k++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		answers, _, err := ix.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != len(objs) {
			t.Fatalf("query %v: %d answers, want all %d", q, len(answers), len(objs))
		}
	}
}
