package core

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
)

func TestPartitionsCoverQueryRange(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	domain := geom.Square(1000)
	objs := randObjects(rng, 120, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	for trial := 0; trial < 20; trial++ {
		r := geom.NewRect(rng.Float64()*900, rng.Float64()*900,
			rng.Float64()*900+100, rng.Float64()*900+100)
		parts, dur := ix.Partitions(r)
		if dur < 0 {
			t.Fatal("negative duration")
		}
		if len(parts) == 0 {
			t.Fatalf("no partitions intersect %v", r)
		}
		// Every returned region overlaps the range; density is coherent.
		covered := 0.0
		for _, p := range parts {
			if !p.Region.Overlaps(r) {
				t.Fatalf("partition %v does not overlap query %v", p.Region, r)
			}
			if p.Count < 0 || p.Density < 0 {
				t.Fatalf("bad partition stats %+v", p)
			}
			if math.Abs(p.Density*p.Region.Area()-float64(p.Count)) > 1e-6*float64(p.Count+1) {
				t.Fatalf("density inconsistent: %+v", p)
			}
			inter := geom.NewRect(
				math.Max(p.Region.Min.X, r.Min.X), math.Max(p.Region.Min.Y, r.Min.Y),
				math.Min(p.Region.Max.X, r.Max.X), math.Min(p.Region.Max.Y, r.Max.Y))
			covered += inter.Area()
		}
		if math.Abs(covered-r.Area()) > 1e-6*r.Area() {
			t.Fatalf("partitions cover %v of query area %v", covered, r.Area())
		}
	}
}

// TestCellAreaApproximatesExact: the leaf-based cell area is within a
// reasonable factor of the exact cell area (it is an over-approximation
// at leaf granularity and the 4-point test may add spurious leaves).
func TestCellAreaApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	domain := geom.Square(1000)
	objs := randObjects(rng, 80, 1000, 25)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	for _, i := range []int{0, 20, 41, 79} {
		approx, err := ix.CellArea(int32(i))
		if err != nil {
			t.Fatal(err)
		}
		exact := fullRegion(objs, i, domain).Cell(int32(i), 720).Area()
		if approx < exact*0.5 {
			t.Errorf("object %d: leaf area %v far below exact %v", i, approx, exact)
		}
		if approx > exact*20+0.05*domain.Area() {
			t.Errorf("object %d: leaf area %v wildly above exact %v", i, approx, exact)
		}
	}
	if _, err := ix.CellArea(9999); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestBuildCellAreasMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	domain := geom.Square(1000)
	objs := randObjects(rng, 60, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	areas := ix.BuildCellAreas()
	for _, i := range []int32{0, 10, 30, 59} {
		scan, err := ix.CellArea(i)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(areas[i]-scan) > 1e-9*(1+scan) {
			t.Errorf("object %d: offline area %v != scan %v", i, areas[i], scan)
		}
	}
}

func TestCellRegionsAndLeafRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(511))
	domain := geom.Square(1000)
	objs := randObjects(rng, 60, 1000, 20)
	ix, _ := buildIndex(t, objs, domain, StrategyIC)
	regions := ix.CellRegions(5)
	if len(regions) == 0 {
		t.Fatal("object 5 has no leaf regions")
	}
	// The object's own center must be covered by one of its regions
	// (its UV-cell always contains its center).
	c := objs[5].Region.C
	found := false
	for _, r := range regions {
		if r.Contains(c) {
			found = true
			break
		}
	}
	if !found {
		t.Error("object center not covered by its own cell regions")
	}
	_, leaf, _, _, err := ix.leafAt(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.Contains(c) {
		t.Error("leafAt returned a region not containing the point")
	}
	if _, _, _, _, err := ix.leafAt(geom.Pt(-1, -1), nil); err == nil {
		t.Error("outside point accepted")
	}
}
