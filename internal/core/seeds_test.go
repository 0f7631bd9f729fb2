package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"uvdiagram/internal/datagen"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// pointObjects turns centers into zero-radius objects with dense ids.
func pointObjects(centers []geom.Point) []uncertain.Object {
	objs := make([]uncertain.Object, len(centers))
	for i, c := range centers {
		objs[i] = uncertain.New(int32(i), geom.Circle{C: c}, nil)
	}
	return objs
}

// latticeObjects is an n×n integer lattice of the given spacing with
// its corner at the origin: every object has four neighbors at exactly
// the same distance, eight at the next, and so on.
func latticeObjects(n, spacing int) []uncertain.Object {
	var cs []geom.Point
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			cs = append(cs, geom.Pt(float64(x*spacing), float64(y*spacing)))
		}
	}
	return pointObjects(cs)
}

// ringObjects puts a center object at c and, around it, every integer
// point at distance 5, 25 and 65 (radii with 12, 20 and 36 integer
// points), so the center's neighbors tie in rings computed exactly.
func ringObjects(c geom.Point) []uncertain.Object {
	cs := []geom.Point{c}
	for _, r := range []int{5, 25, 65} {
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				if x*x+y*y == r*r {
					cs = append(cs, c.Add(geom.Pt(float64(x), float64(y))))
				}
			}
		}
	}
	return pointObjects(cs)
}

// groupPathSeeds derives every object's seeds the way Build does: one
// shared list per helper-R-tree leaf, each member's seeds from it, and
// the member's own browse where the list cannot settle them. It returns
// the seeds by id and how many objects the list settled.
func groupPathSeeds(tree *rtree.Tree, objs []uncertain.Object, domain geom.Rect, k, ks int) ([][]int32, int) {
	all := func(int32) bool { return true }
	out := make([][]int32, len(objs))
	var g seedGroup
	sc := NewDeriveScratch()
	fromList := 0
	for _, members := range leafGroups(tree, len(objs), all) {
		listed := g.collect(tree, objs, members)
		for _, id := range members {
			if listed && sc.seedsFromList(&g, objs[id], domain, k, ks) {
				fromList++
			} else {
				sc.selectSeeds(tree, objs[id], domain, k, ks)
			}
			out[id] = slices.Clone(sc.seeds)
		}
	}
	return out, fromList
}

// TestSelectSeedsLattice: when every distance ties, the seeds are still
// the brute-force (distmin, id) oracle's, on the browse path and on the
// group-list path, at cuts (k+1) that fall inside a run of equal keys
// and with every sector count.
func TestSelectSeedsLattice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		objs   []uncertain.Object
		domain geom.Rect
	}{
		{"lattice", latticeObjects(15, 10), geom.Square(140)},
		{"rings", ringObjects(geom.Pt(100, 100)), geom.Square(200)},
	} {
		tree := buildTestTree(tc.objs)
		var sc DeriveScratch
		for _, k := range []int{3, 6, 20, 300} {
			for _, ks := range []int{4, 8, 12} {
				listed, fromList := groupPathSeeds(tree, tc.objs, tc.domain, k, ks)
				if fromList == 0 {
					t.Errorf("%s k=%d ks=%d: the group lists settled no object", tc.name, k, ks)
				}
				for _, oi := range tc.objs {
					want := referenceSelectSeeds(tc.objs, oi, k, ks)
					sc.selectSeeds(tree, oi, tc.domain, k, ks)
					if !slices.Equal(sc.seeds, want) {
						t.Fatalf("%s k=%d ks=%d object %d: browse seeds %v, oracle %v", tc.name, k, ks, oi.ID, sc.seeds, want)
					}
					if !slices.Equal(listed[oi.ID], want) {
						t.Fatalf("%s k=%d ks=%d object %d: group-path seeds %v, oracle %v", tc.name, k, ks, oi.ID, listed[oi.ID], want)
					}
				}
			}
		}
	}
}

// jitteredObjects puts one small object at a random point of every
// spacing-sided cell of the domain, so objects lie within one spacing
// of each edge and each corner.
func jitteredObjects(rng *rand.Rand, domain geom.Rect, spacing float64) []uncertain.Object {
	var objs []uncertain.Object
	for x := domain.Min.X; x < domain.Max.X; x += spacing {
		for y := domain.Min.Y; y < domain.Max.Y; y += spacing {
			c := geom.Pt(x+rng.Float64()*spacing, y+rng.Float64()*spacing)
			objs = append(objs, uncertain.New(int32(len(objs)), geom.Circle{C: c, R: 0.02 * spacing}, nil))
		}
	}
	return objs
}

// TestSeedReachStop: the browse stops once no open sector can still be
// seeded — its distmin passed the domain reach of every open sector —
// and the group lists settle edge objects the same way. Near edges and
// corners, and in long thin domains, sectors facing out of the domain
// stay empty; the seeds must still be the brute-force oracle's, and the
// browse must consume fewer neighbors than the oracle's full loop.
func TestSeedReachStop(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for _, domain := range []geom.Rect{
		{Max: geom.Pt(250, 250)},
		{Max: geom.Pt(800, 40)}, // 20:1
		{Max: geom.Pt(40, 800)}, // 1:20
	} {
		objs := jitteredObjects(rng, domain, 10)
		tree := buildTestTree(objs)
		var sc DeriveScratch
		for _, ks := range []int{4, 8, 12} {
			listed, _ := groupPathSeeds(tree, objs, domain, DefaultSeedK, ks)
			pulls, oraclePulls := 0, 0
			for _, oi := range objs {
				want, n := referenceSeedPulls(objs, oi, DefaultSeedK, ks)
				oraclePulls += n
				sc.selectSeeds(tree, oi, domain, DefaultSeedK, ks)
				pulls += sc.pulled
				if !slices.Equal(sc.seeds, want) {
					t.Fatalf("domain %v ks=%d object %d at %v: browse seeds %v, oracle %v", domain, ks, oi.ID, oi.Region.C, sc.seeds, want)
				}
				if !slices.Equal(listed[oi.ID], want) {
					t.Fatalf("domain %v ks=%d object %d at %v: group-path seeds %v, oracle %v", domain, ks, oi.ID, oi.Region.C, listed[oi.ID], want)
				}
			}
			if pulls >= oraclePulls {
				t.Errorf("domain %v ks=%d: the browse consumed %d neighbors, the full loop %d", domain, ks, pulls, oraclePulls)
			}
			t.Logf("domain %v ks=%d: %.1f neighbors per object, %.1f without the reach stop", domain, ks,
				float64(pulls)/float64(len(objs)), float64(oraclePulls)/float64(len(objs)))
		}
	}
}

// benchDatasets are the populations the serving benchmark builds:
// uniform at n = 8 000 and 4 000 and skewed (σ 2 000) at n = 4 000,
// seed 20100301 in a 10 000-sided domain.
func benchDatasets() map[string][]uncertain.Object {
	cfg := func(n int) datagen.Config {
		return datagen.Config{N: n, Side: 10000, Diameter: datagen.DefaultDiameter, Seed: 20100301}
	}
	return map[string][]uncertain.Object{
		"uniform-8000": datagen.Uniform(cfg(8000)),
		"skewed-4000":  datagen.Skewed(cfg(4000), 2000),
		"uniform-4000": datagen.Uniform(cfg(4000)),
	}
}

// TestSeedTiesAbsentOnBenchData: on the benchmark's datasets no exact
// distmin tie decides a seed, so the (distmin, id) rule leaves every
// seed set where the browse's heap order put it. A tie could decide a
// seed when a run of equal keys among the neighbors the sector loop
// consumes holds two that could seed, or when the loop stops inside a
// run (the first neighbor it does not consume ties the last it does).
func TestSeedTiesAbsentOnBenchData(t *testing.T) {
	for name, objs := range benchDatasets() {
		t.Run(name, func(t *testing.T) {
			tree := buildTestTree(objs)
			it := &rtree.NNIterator{}
			var prefix []rtree.Neighbor
			for _, oi := range objs {
				// The consumed neighbors, then the first unconsumed one.
				it.Reset(tree, oi.Region.C)
				prefix = prefix[:0]
				taken := make([]bool, DefaultSeedSectors)
				found, done := 0, false
				for {
					nb, ok := it.Next()
					if !ok {
						break
					}
					prefix = append(prefix, nb)
					if done {
						break
					}
					if nb.Item.ID != oi.ID && !oi.Region.Overlaps(nb.Item.MBC) {
						s := int(geom.NormalizeAngle(nb.Item.MBC.C.Sub(oi.Region.C).Angle()) / (2 * math.Pi) * DefaultSeedSectors)
						if s >= DefaultSeedSectors {
							s = DefaultSeedSectors - 1
						}
						if !taken[s] {
							taken[s] = true
							found++
						}
					}
					done = found == DefaultSeedSectors || len(prefix) == DefaultSeedK+1
				}
				eligible := 0
				for i, nb := range prefix {
					if i == 0 || nb.DistMin != prefix[i-1].DistMin {
						eligible = 0
					} else if done && i == len(prefix)-1 {
						t.Fatalf("object %d: the loop stops inside a run of distmin %v", oi.ID, nb.DistMin)
					}
					if nb.Item.ID != oi.ID && !oi.Region.Overlaps(nb.Item.MBC) {
						if eligible++; eligible > 1 {
							t.Fatalf("object %d: two candidate seeds tie at distmin %v", oi.ID, nb.DistMin)
						}
					}
				}
			}
		})
	}
}
