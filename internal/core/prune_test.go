package core

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

func buildTestTree(objs []uncertain.Object) *rtree.Tree {
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(i)}
	}
	return rtree.BulkLoad(items, 16, pager.New(0))
}

func TestSelectSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	objs := randObjects(rng, 200, 1000, 10)
	tree := buildTestTree(objs)
	oi := objs[50]
	var sc DeriveScratch
	sc.selectSeeds(tree, oi, geom.Square(1000), 100, 8)
	seeds := sc.seeds
	if len(seeds) == 0 || len(seeds) > 8 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	sectorOf := func(id int32) int {
		dir := objs[id].Region.C.Sub(oi.Region.C)
		s := int(geom.NormalizeAngle(dir.Angle()) / (2 * math.Pi) * 8)
		if s >= 8 {
			s = 7
		}
		return s
	}
	seen := map[int]bool{}
	for _, id := range seeds {
		if id == oi.ID {
			t.Fatal("object selected as its own seed")
		}
		if oi.Region.Overlaps(objs[id].Region) {
			t.Fatalf("seed %d overlaps the object — it contributes no edge", id)
		}
		s := sectorOf(id)
		if seen[s] {
			t.Fatalf("two seeds in sector %d", s)
		}
		seen[s] = true
		// The seed must be the closest non-overlapping k-NN candidate in
		// its sector: verify no strictly closer eligible object exists.
		dSeed := objs[id].Region.C.Dist(oi.Region.C) - objs[id].Region.R
		for _, o := range objs {
			if o.ID == oi.ID || o.ID == id || sectorOf(o.ID) != s || oi.Region.Overlaps(o.Region) {
				continue
			}
			d := o.Region.C.Dist(oi.Region.C) - o.Region.R
			if d < dSeed-1e-9 {
				t.Fatalf("seed %d (d=%v) is not the closest in sector %d: %d has d=%v",
					id, dSeed, s, o.ID, d)
			}
		}
	}
}

func TestSelectSeedsSmallDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	objs := randObjects(rng, 3, 1000, 10)
	tree := buildTestTree(objs)
	var sc DeriveScratch
	sc.selectSeeds(tree, objs[0], geom.Square(1000), 300, 8)
	seeds := sc.seeds
	if len(seeds) > 2 {
		t.Fatalf("got %d seeds from a 3-object dataset", len(seeds))
	}
	for _, id := range seeds {
		if id == objs[0].ID {
			t.Fatal("self seed")
		}
	}
}

// TestIPruneSound: objects eliminated by I-pruning can indeed not
// reshape the possible region (their constraint changes nothing inside
// the region).
func TestIPruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	domain := geom.Square(1000)
	var sc DeriveScratch
	for trial := 0; trial < 5; trial++ {
		objs := randObjects(rng, 60, 1000, 20)
		tree := buildTestTree(objs)
		i := rng.Intn(len(objs))
		oi := objs[i]
		sc.selectSeeds(tree, oi, domain, 30, 8)
		region := NewPossibleRegion(oi.Region.C, domain)
		for _, id := range sc.seeds {
			region.AddObject(oi, objs[id])
		}
		kept := map[int32]bool{}
		for _, id := range iPruneInto(tree, nil, oi, region, 256, nil, nil) {
			kept[id] = true
		}
		for j := range objs {
			if j == i || kept[int32(j)] {
				continue
			}
			c, ok := NewConstraint(oi, objs[j])
			if !ok {
				continue
			}
			// A pruned object must not exclude any sampled region point.
			for s := 0; s < 360; s++ {
				phi := 2 * math.Pi * float64(s) / 360
				r, _ := region.Radius(phi)
				p := oi.Region.C.Add(geom.PolarUnit(phi).Scale(r * 0.999999))
				if c.Excludes(p) {
					t.Fatalf("trial %d: I-pruned object %d excludes region point %v of object %d",
						trial, j, p, i)
				}
			}
		}
	}
}

// TestCRSupersetOfRObjects: the cr-objects of Algorithm 2 always contain
// the true r-objects (pruning soundness, the property that makes the
// IC strategy correct).
func TestCRSupersetOfRObjects(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	domain := geom.Square(1000)
	for trial := 0; trial < 4; trial++ {
		objs := randObjects(rng, 80, 1000, 25)
		tree := buildTestTree(objs)
		for _, i := range []int{0, 17, 42, 79} {
			oi := objs[i]
			res := DeriveCRObjects(tree, oi, objs, domain, 40, 8, 256)
			inCR := map[int32]bool{}
			for _, id := range res.CR {
				inCR[id] = true
			}
			full := fullRegion(objs, i, domain)
			cell := full.Cell(oi.ID, 1440)
			for _, id := range cell.RObjects {
				if !inCR[id] {
					t.Fatalf("trial %d obj %d: r-object %d missing from cr-set (|CR|=%d)",
						trial, i, id, len(res.CR))
				}
			}
			// And the pruning must actually prune something on a dataset
			// of this size.
			if len(res.CR) >= len(objs)-1 {
				t.Logf("trial %d obj %d: no pruning achieved (|CR|=%d)", trial, i, len(res.CR))
			}
		}
	}
}

// TestCRRegionEquivalence: refining with only the cr-objects produces
// the same region as refining with every object.
func TestCRRegionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	domain := geom.Square(1000)
	objs := randObjects(rng, 100, 1000, 20)
	tree := buildTestTree(objs)
	for _, i := range []int{3, 55, 90} {
		oi := objs[i]
		res := DeriveCRObjects(tree, oi, objs, domain, 50, 8, 256)
		crRegion := NewPossibleRegion(oi.Region.C, domain)
		for _, id := range res.CR {
			crRegion.AddObject(oi, objs[id])
		}
		full := fullRegion(objs, i, domain)
		for s := 0; s < 720; s++ {
			phi := 2 * math.Pi * float64(s) / 720
			rc, _ := crRegion.Radius(phi)
			rf, _ := full.Radius(phi)
			if math.Abs(rc-rf) > 1e-6*(1+rf) {
				t.Fatalf("object %d: cr-region differs from full region at phi=%v: %v vs %v",
					i, phi, rc, rf)
			}
		}
	}
}
