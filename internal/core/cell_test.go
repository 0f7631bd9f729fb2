package core

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// TestVoronoiDegeneration: with zero radii the UV-cell of Oi is exactly
// its Voronoi cell.
func TestVoronoiDegeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	domain := geom.Square(1000)
	objs := make([]uncertain.Object, 20)
	for i := range objs {
		objs[i] = uncertain.New(int32(i),
			geom.Circle{C: geom.Pt(rng.Float64()*1000, rng.Float64()*1000), R: 0}, nil)
	}
	for trial := 0; trial < 5; trial++ {
		i := rng.Intn(len(objs))
		region := fullRegion(objs, i, domain)
		for k := 0; k < 600; k++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			// Voronoi: q in cell i iff ci is (one of) the nearest centers.
			di := q.Dist(objs[i].Region.C)
			nearest := math.Inf(1)
			for j := range objs {
				if j != i {
					nearest = math.Min(nearest, q.Dist(objs[j].Region.C))
				}
			}
			want := di <= nearest
			got := region.Contains(q)
			if got != want && math.Abs(di-nearest) > 1e-9 {
				t.Fatalf("voronoi mismatch at %v: got %v want %v", q, got, want)
			}
		}
	}
}

// TestCellsCoverDomain: every point of D lies in at least one UV-cell.
func TestCellsCoverDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	domain := geom.Square(1000)
	objs := randObjects(rng, 15, 1000, 25)
	regions := make([]*PossibleRegion, len(objs))
	for i := range objs {
		regions[i] = fullRegion(objs, i, domain)
	}
	for k := 0; k < 1000; k++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		covered := false
		for i := range regions {
			if regions[i].Contains(q) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("point %v covered by no UV-cell", q)
		}
	}
}

// TestCellAreaAgainstMonteCarlo: the quadrature area matches sampling.
func TestCellAreaAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	domain := geom.Square(1000)
	objs := randObjects(rng, 12, 1000, 35)
	for _, i := range []int{0, 5, 11} {
		region := fullRegion(objs, i, domain)
		cell := region.Cell(objs[i].ID, 720)
		const n = 120000
		hits := 0
		for k := 0; k < n; k++ {
			q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			if region.Contains(q) {
				hits++
			}
		}
		mc := float64(hits) / n * domain.Area()
		tol := 4 * domain.Area() / math.Sqrt(n) * 0.5 // generous ~4σ band
		if math.Abs(mc-cell.Area()) > tol+0.01*domain.Area() {
			t.Errorf("object %d: area quadrature %v vs MC %v", i, cell.Area(), mc)
		}
	}
}

// TestRObjectsComplete: every object whose removal visibly changes the
// region is reported as an r-object.
func TestRObjectsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	domain := geom.Square(1000)
	for trial := 0; trial < 6; trial++ {
		objs := randObjects(rng, 10, 1000, 40)
		i := rng.Intn(len(objs))
		full := fullRegion(objs, i, domain)
		cell := full.Cell(objs[i].ID, 1440)
		isR := map[int32]bool{}
		for _, id := range cell.RObjects {
			isR[id] = true
		}
		for j := range objs {
			if j == i {
				continue
			}
			// Region without j.
			without := NewPossibleRegion(objs[i].Region.C, domain)
			for k := range objs {
				if k != i && k != j {
					without.AddObject(objs[i], objs[k])
				}
			}
			// Detect a visible difference along sampled rays.
			differs := false
			for s := 0; s < 720 && !differs; s++ {
				phi := 2 * math.Pi * float64(s) / 720
				rFull, _ := full.Radius(phi)
				rWithout, _ := without.Radius(phi)
				if rWithout-rFull > 1e-6*(1+rFull) {
					differs = true
				}
			}
			if differs && !isR[int32(j)] {
				t.Fatalf("trial %d: object %d shapes the cell of %d but is not an r-object (%v)",
					trial, j, i, cell.RObjects)
			}
		}
	}
}

// TestVerticesOnBoundary: each vertex satisfies its two active bounds.
func TestVerticesOnBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	domain := geom.Square(1000)
	objs := randObjects(rng, 12, 1000, 35)
	region := fullRegion(objs, 0, domain)
	vs := region.Vertices(720)
	if len(vs) == 0 {
		t.Fatal("no vertices found")
	}
	for _, v := range vs {
		r, _ := region.Radius(v.Phi)
		if math.Abs(r-v.R) > 1e-6*(1+r) {
			t.Errorf("vertex radius mismatch at phi=%v: %v vs %v", v.Phi, v.R, r)
		}
		if v.Before == v.After {
			t.Errorf("vertex at phi=%v has identical sides %d", v.Phi, v.Before)
		}
		// The vertex point must lie (numerically) on the region boundary.
		if !region.Contains(v.P) {
			// Allow boundary rounding: shrink slightly toward center.
			in := geom.Lerp(region.Center(), v.P, 1-1e-9)
			if !region.Contains(in) {
				t.Errorf("vertex %v is not on the region boundary", v.P)
			}
		}
	}
	// Vertices sorted by angle.
	for i := 1; i < len(vs); i++ {
		if vs[i].Phi < vs[i-1].Phi {
			t.Error("vertices not sorted by angle")
		}
	}
}

// TestHullContainsRegion: CH of the vertices contains every sampled
// region point (the C-pruning correctness argument).
func TestHullContainsRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	domain := geom.Square(1000)
	for trial := 0; trial < 6; trial++ {
		objs := randObjects(rng, 12, 1000, 35)
		i := rng.Intn(len(objs))
		region := fullRegion(objs, i, domain)
		hull := hullOfVertices(region.Vertices(720))
		if len(hull) < 3 {
			t.Fatalf("degenerate hull: %v", hull)
		}
		// Every boundary sample must be inside the hull (tiny tolerance
		// for refinement rounding).
		for s := 0; s < 720; s++ {
			phi := 2 * math.Pi * float64(s) / 720
			r, _ := region.Radius(phi)
			p := region.Center().Add(geom.PolarUnit(phi).Scale(r * (1 - 1e-9)))
			if !geom.PointInConvex(hull, p) {
				// Shrink once more before failing: hull vertices carry
				// rounding error, and an arc narrower than a sample
				// bracket contributes no vertex.
				p2 := region.Center().Add(geom.PolarUnit(phi).Scale(r * 0.999))
				if !geom.PointInConvex(hull, p2) {
					t.Fatalf("trial %d: boundary point %v outside CH(Pi)", trial, p)
				}
			}
		}
	}
}
