package core3

// Property tests gating the 3D fast path on bitwise equivalence with
// the retained reference loops (reference3_test.go): identical cr-sets,
// identical octree stats and identical PNN answers — probabilities
// included, since identical candidate lists integrate identically —
// for every worker count and data distribution. These run under -race
// in CI, so the sizes are modest.

import (
	"errors"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// skewedObjs3 clusters centers around a corner-offset hot spot (clamped
// into the domain), the 3D counterpart of datagen.Skewed.
func skewedObjs3(n int, side, maxR float64, seed int64) []uncertain3.Object3 {
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v, r float64) float64 {
		if v < r {
			return r
		}
		if v > side-r {
			return side - r
		}
		return v
	}
	objs := make([]uncertain3.Object3, n)
	for i := range objs {
		r := 1 + rng.Float64()*maxR
		c := geom3.P3(
			clamp(side/4+rng.NormFloat64()*side/10, r),
			clamp(side/4+rng.NormFloat64()*side/10, r),
			clamp(side/2+rng.NormFloat64()*side/10, r),
		)
		objs[i] = uncertain3.New3(int32(i), geom3.Sphere{C: c, R: r}, uncertain3.PaperGaussian3())
	}
	return objs
}

func TestBuild3Parity(t *testing.T) {
	const side = 150
	domain := geom3.Cube(side)
	datasets := map[string][]uncertain3.Object3{
		"uniform": randObjs3(150, side, 2, 21),
		"skewed":  skewedObjs3(150, side, 2, 22),
	}
	for name, objs := range datasets {
		opts := DefaultOptions3()
		opts.Dirs = 192 // same lattice on both paths; keeps -race runs fast
		refIx, refStats, err := Build3Reference(objs, domain, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		rng := rand.New(rand.NewSource(23))
		queries := make([]geom3.Point3, 12)
		for i := range queries {
			queries[i] = geom3.P3(rng.Float64()*side, rng.Float64()*side, rng.Float64()*side)
		}
		refAns := make([][]Answer3, len(queries))
		for i, q := range queries {
			if refAns[i], _, err = refIx.PNN(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			wopts := opts
			wopts.Workers = workers
			ix, stats, err := Build3(objs, domain, wopts)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, workers, err)
			}
			if stats.SumCR != refStats.SumCR {
				t.Fatalf("%s W=%d: SumCR %d, reference %d", name, workers, stats.SumCR, refStats.SumCR)
			}
			if stats.Index != refStats.Index {
				t.Fatalf("%s W=%d: index stats %+v, reference %+v", name, workers, stats.Index, refStats.Index)
			}
			for id := int32(0); int(id) < len(objs); id++ {
				got, want := ix.CRObjects(id), refIx.CRObjects(id)
				if len(got) != len(want) {
					t.Fatalf("%s W=%d id=%d: cr-set %v, reference %v", name, workers, id, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s W=%d id=%d: cr-set %v, reference %v", name, workers, id, got, want)
					}
				}
			}
			for i, q := range queries {
				got, _, err := ix.PNN(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(refAns[i]) {
					t.Fatalf("%s W=%d q=%v: answers %v, reference %v", name, workers, q, got, refAns[i])
				}
				for j := range got {
					if got[j] != refAns[i][j] {
						t.Fatalf("%s W=%d q=%v: answers %v, reference %v", name, workers, q, got, refAns[i])
					}
				}
			}
		}
	}
}

// TestDeriveCR3MatchesReference pins the single-object derivation to
// the reference with one long-lived scratch (steady-state reuse).
func TestDeriveCR3MatchesReference(t *testing.T) {
	objs := randObjs3(120, 120, 2, 24)
	domain := geom3.Cube(120)
	grid := NewHashGrid3(objs, domain, 0)
	dirs := geom3.FibonacciSphere(192)
	sc := NewDeriveScratch3()
	for i := range objs {
		ids, pr := DeriveCR3(grid, objs[i], objs, domain, dirs, sc)
		refIDs, refPr := DeriveCR3Reference(grid, objs[i], objs, domain, dirs)
		if len(ids) != len(refIDs) {
			t.Fatalf("obj=%d: ids %v, reference %v", i, ids, refIDs)
		}
		for j := range ids {
			if ids[j] != refIDs[j] {
				t.Fatalf("obj=%d: ids %v, reference %v", i, ids, refIDs)
			}
		}
		if got, want := pr.MaxRadius(dirs), refPr.MaxRadius(dirs); got != want {
			t.Fatalf("obj=%d: region max radius %v, reference %v", i, got, want)
		}
	}
}

func TestBuild3TypedErrors(t *testing.T) {
	objs := randObjs3(3, 10, 1, 25)
	objs[1].ID = 7
	if _, _, err := Build3(objs, geom3.Cube(10), DefaultOptions3()); !errors.Is(err, ErrSparseIDs) {
		t.Fatalf("non-dense IDs: err = %v, want errors.Is ErrSparseIDs", err)
	}
	objs = randObjs3(3, 10, 1, 26)
	objs[2].Region.C = geom3.P3(100, 100, 100)
	if _, _, err := Build3(objs, geom3.Cube(10), DefaultOptions3()); !errors.Is(err, ErrOutOfDomain3) {
		t.Fatalf("out-of-domain center: err = %v, want errors.Is ErrOutOfDomain3", err)
	}
	if _, _, err := Build3(objs, geom3.Cube(10), DefaultOptions3()); errors.Is(err, ErrSparseIDs) {
		t.Fatal("out-of-domain center misreported as ErrSparseIDs")
	}
}
