package core

// Property tests gating the order-k fast path on bitwise equivalence
// with the retained reference loops (orderk_reference_test.go): identical
// cr-sets, identical index stats and identical PossibleKNN answers for
// every worker count, order and data distribution. These run under
// -race in CI, so the sizes are modest.

import (
	"math/rand"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// orderKParityDatasets returns the uniform and skewed populations the
// sweep runs over.
func orderKParityDatasets(n int) map[string][]uncertain.Object {
	cfg := datagen.Config{N: n, Side: 1000, Diameter: 60, Seed: 42}
	return map[string][]uncertain.Object{
		"uniform": datagen.Uniform(cfg),
		"skewed":  datagen.Skewed(cfg, 0.15),
	}
}

func TestOrderKParity(t *testing.T) {
	domain := geom.Square(1000)
	for name, objs := range orderKParityDatasets(120) {
		store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultBuildOptions()
		opts.RegionSamples = 96 // same resolution on both paths; keeps -race runs fast
		tree := BuildHelperRTree(store, opts.Fanout)
		for _, k := range []int{1, 2, 4} {
			refIx, refStats, err := BuildOrderKReference(store, domain, tree, k, opts)
			if err != nil {
				t.Fatalf("%s k=%d: reference: %v", name, k, err)
			}
			rng := rand.New(rand.NewSource(int64(100 + k)))
			queries := make([]geom.Point, 16)
			for i := range queries {
				queries[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			refAns := make([][]int32, len(queries))
			for i, q := range queries {
				if refAns[i], _, err = refIx.PossibleKNN(q); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 4, 8} {
				wopts := opts
				wopts.Workers = workers
				ix, stats, err := BuildOrderK(store, domain, tree, k, wopts)
				if err != nil {
					t.Fatalf("%s k=%d W=%d: %v", name, k, workers, err)
				}
				if stats.SumCR != refStats.SumCR {
					t.Fatalf("%s k=%d W=%d: SumCR %d, reference %d", name, k, workers, stats.SumCR, refStats.SumCR)
				}
				if stats.Index != refStats.Index {
					t.Fatalf("%s k=%d W=%d: index stats %+v, reference %+v", name, k, workers, stats.Index, refStats.Index)
				}
				for id := int32(0); int(id) < len(objs); id++ {
					got, want := ix.CRObjects(id), refIx.CRObjects(id)
					if len(got) != len(want) {
						t.Fatalf("%s k=%d W=%d id=%d: cr-set %v, reference %v", name, k, workers, id, got, want)
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("%s k=%d W=%d id=%d: cr-set %v, reference %v", name, k, workers, id, got, want)
						}
					}
				}
				for i, q := range queries {
					got, _, err := ix.PossibleKNN(q)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(refAns[i]) {
						t.Fatalf("%s k=%d W=%d q=%v: answer %v, reference %v", name, k, workers, q, got, refAns[i])
					}
					for j := range got {
						if got[j] != refAns[i][j] {
							t.Fatalf("%s k=%d W=%d q=%v: answer %v, reference %v", name, k, workers, q, got, refAns[i])
						}
					}
				}
			}
		}
	}
}

// TestDeriveOrderKCRMatchesReference pins the single-object derivation
// (the unit under the build loops) to the reference, region membership
// included.
func TestDeriveOrderKCRMatchesReference(t *testing.T) {
	objs := orderKObjs(90, 7)
	domain := geom.Square(1000)
	store, err := uncertain.NewStore(objs, pager.New(uncertain.ObjectPageBytes))
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildHelperRTree(store, 16)
	sc := NewDeriveScratch() // one scratch across all objects: steady-state reuse
	for _, k := range []int{1, 2, 4} {
		for i := range objs {
			ids, pr := DeriveOrderKCR(tree, objs[i], objs, domain, k, 128, sc)
			refIDs, refPr := DeriveOrderKCRReference(tree, objs[i], objs, domain, k, 128)
			if len(ids) != len(refIDs) {
				t.Fatalf("k=%d obj=%d: ids %v, reference %v", k, i, ids, refIDs)
			}
			for j := range ids {
				if ids[j] != refIDs[j] {
					t.Fatalf("k=%d obj=%d: ids %v, reference %v", k, i, ids, refIDs)
				}
			}
			if got, want := pr.MaxRadiusK(64, k), refPr.MaxRadiusK(64, k); got != want {
				t.Fatalf("k=%d obj=%d: region max radius %v, reference %v", k, i, got, want)
			}
		}
	}
}
