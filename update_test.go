package uvdiagram_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
)

// TestInsertThenQuery: live inserts keep answers exactly equal to brute
// force over the grown dataset.
func TestInsertThenQuery(t *testing.T) {
	cfg := datagen.Config{N: 300, Side: 2000, Diameter: 30, Seed: 21}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs[:250], cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[250:] {
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 300 {
		t.Fatalf("Len = %d after inserts", db.Len())
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 40; k++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		answers, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		want := uvdiagram.AnswerSet(objs, q)
		if len(answers) != len(want) {
			t.Fatalf("query %v: %d answers, want %d", q, len(answers), len(want))
		}
		for i, a := range answers {
			if int(a.ID) != want[i] {
				t.Fatalf("query %v: ids %v vs %v", q, answers, want)
			}
		}
	}
	// The inserted objects answer at their own centers.
	for _, o := range objs[250:] {
		answers, _, err := db.PNN(o.Region.C)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range answers {
			if a.ID == o.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("inserted object %d missing at its own center", o.ID)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db, _ := buildSmallDB(t, 50, nil)
	// Wrong ID.
	if err := db.Insert(uvdiagram.NewObject(99, 100, 100, 5, nil)); err == nil {
		t.Error("non-dense ID accepted")
	}
	// Outside domain.
	if err := db.Insert(uvdiagram.NewObject(50, -10, 100, 5, nil)); err == nil {
		t.Error("object outside domain accepted")
	}
	// Correct insert works.
	if err := db.Insert(uvdiagram.NewObject(50, 100, 100, 5, nil)); err != nil {
		t.Fatal(err)
	}
}

func TestTopKPNN(t *testing.T) {
	db, _ := buildSmallDB(t, 400, nil)
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 30; k++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		all, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		top, _, err := db.TopKPNN(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) > 2 {
			t.Fatalf("TopK returned %d answers", len(top))
		}
		if len(all) >= 2 && len(top) != 2 {
			t.Fatalf("TopK returned %d of %d answers", len(top), len(all))
		}
		// Descending probabilities and truly the maxima.
		if len(top) == 2 && top[0].Prob < top[1].Prob {
			t.Fatal("TopK not sorted by probability")
		}
		best := 0.0
		for _, a := range all {
			best = math.Max(best, a.Prob)
		}
		if len(top) > 0 && math.Abs(top[0].Prob-best) > 1e-12 {
			t.Fatalf("TopK[0].Prob = %v, max = %v", top[0].Prob, best)
		}
	}
	// k larger than the answer set returns everything.
	q := uvdiagram.Pt(1000, 1000)
	all, _, _ := db.PNN(q)
	top, _, err := db.TopKPNN(q, 1000)
	if err != nil || len(top) != len(all) {
		t.Fatalf("TopK with huge k: %d vs %d (%v)", len(top), len(all), err)
	}
}

// TestPossibleKNN: the facade k-NN set matches brute force and nests
// with k.
func TestPossibleKNN(t *testing.T) {
	db, objs := buildSmallDB(t, 300, nil)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		prev := map[int32]bool{}
		for _, k := range []int{1, 2, 4, 8} {
			got, err := db.PossibleKNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			// Brute force: fewer than k objects surely closer.
			var want []int32
			for i := range objs {
				dmin := objs[i].DistMin(q)
				closer := 0
				for j := range objs {
					if j != i && objs[j].DistMax(q) < dmin {
						closer++
					}
				}
				if closer <= k-1 {
					want = append(want, objs[i].ID)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v k=%d: got %d ids, want %d", q, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("q=%v k=%d: sets differ", q, k)
				}
			}
			// Monotone nesting in k.
			for _, id := range got {
				prev[id] = true
			}
			for id := range prev {
				found := false
				for _, g := range got {
					if g == id {
						found = true
					}
				}
				if !found {
					t.Fatalf("k=%d lost id %d present at smaller k", k, id)
				}
			}
		}
	}
	if _, err := db.PossibleKNN(uvdiagram.Pt(0, 0), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestPossibleKNNRejectsNonFinitePoint: a query point with a NaN or
// infinite coordinate fails with an error matching ErrOutOfDomain, alone
// and inside a batch; a finite point outside the domain is answered.
func TestPossibleKNNRejectsNonFinitePoint(t *testing.T) {
	db, _ := buildSmallDB(t, 500, nil)
	nan, inf := math.NaN(), math.Inf(1)
	for _, q := range []uvdiagram.Point{
		uvdiagram.Pt(nan, 5), uvdiagram.Pt(5, nan), uvdiagram.Pt(inf, 5),
		uvdiagram.Pt(5, -inf), uvdiagram.Pt(-inf, inf),
	} {
		if ids, err := db.PossibleKNN(q, 3); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
			t.Errorf("PossibleKNN(%v): %d ids, err %v; want ErrOutOfDomain", q, len(ids), err)
		}
		qs := []uvdiagram.Point{uvdiagram.Pt(100, 100), q}
		if lists, err := db.BatchOrderK(qs, 3, nil); !errors.Is(err, uvdiagram.ErrOutOfDomain) {
			t.Errorf("BatchOrderK with %v: %d lists, err %v; want ErrOutOfDomain", q, len(lists), err)
		}
	}
	outside := uvdiagram.Pt(-50, -50)
	ids, err := db.PossibleKNN(outside, 3)
	if err != nil || len(ids) == 0 {
		t.Fatalf("PossibleKNN(%v) outside the domain: %d ids, err %v", outside, len(ids), err)
	}
	lists, err := db.BatchOrderK([]uvdiagram.Point{outside}, 3, nil)
	if err != nil || !slices.Equal(lists[0], ids) {
		t.Fatalf("BatchOrderK(%v) outside the domain: %v, err %v; want %v", outside, lists, err, ids)
	}
}

// TestPossibleKNNAllocs: a warm PossibleKNN allocates only its result —
// the candidate walk, its buffers and the answer-set step reuse pooled
// scratch. An allocation count, so it does not depend on the host.
func TestPossibleKNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	db, _ := buildSmallDB(t, 4000, nil)
	qs := datagen.Queries(64, 2000, 13)
	for _, q := range qs { // warm the R-tree's leaf memo and the pools
		if _, err := db.PossibleKNN(q, 4); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.PossibleKNN(qs[i%len(qs)], 4); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("warm PossibleKNN makes %v allocations per call, want ≤ 1 (its result)", allocs)
	}
}

// TestRebuildClearsSlack: after many inserts, Rebuild produces an index
// with no more leaf entries than a fresh build, and identical answers.
func TestRebuildClearsSlack(t *testing.T) {
	cfg := datagen.Config{N: 260, Side: 2000, Diameter: 30, Seed: 33}
	objs := datagen.Uniform(cfg)
	db, err := uvdiagram.Build(objs[:200], cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[200:] {
		if err := db.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	before := db.IndexStats().Entries
	if err := db.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := db.IndexStats().Entries
	if after > before {
		t.Errorf("rebuild grew the index: %d -> %d entries", before, after)
	}
	fresh, err := uvdiagram.Build(objs, cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 30; k++ {
		q := uvdiagram.Pt(rng.Float64()*2000, rng.Float64()*2000)
		a1, _, err := db.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := fresh.PNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a1) != len(a2) {
			t.Fatalf("rebuild answers differ from fresh build at %v", q)
		}
		for i := range a1 {
			if a1[i].ID != a2[i].ID {
				t.Fatalf("rebuild ids differ from fresh build at %v", q)
			}
		}
	}
}
