package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestConicOfUVEdgeMatchesImplicit: the expanded coefficients evaluate
// identically to the sqrt-free implicit form.
func TestConicOfUVEdgeMatchesImplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		e := randomEdge(rng)
		c := ConicOfUVEdge(e)
		for k := 0; k < 20; k++ {
			p := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
			want := e.ImplicitEval(p)
			got := c.Eval(p)
			scale := 1 + math.Abs(want) + math.Abs(got)
			if math.Abs(got-want)/scale > 1e-9 {
				t.Fatalf("trial %d: conic %v vs implicit %v at %v", trial, got, want, p)
			}
		}
		// The edge itself satisfies the conic.
		for _, u := range []float64{-1.5, 0, 0.8} {
			p := e.PointAt(u)
			scale := math.Pow(p.DistSq(e.Fi)+1, 2)
			if math.Abs(c.Eval(p))/scale > 1e-7 {
				t.Fatalf("trial %d: edge point not on conic: %v", trial, c.Eval(p)/scale)
			}
		}
	}
}

// TestIntersectUVEdgesAgainstScan compares the analytic quartic-based
// intersection with a brute-force parameter scan.
func TestIntersectUVEdgesAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	found := 0
	for trial := 0; trial < 200; trial++ {
		e1 := randomEdge(rng)
		e2 := randomEdge(rng)
		got := IntersectUVEdges(e1, e2)
		// Scan e1's branch (hyperbolic parameter u) for sign changes of
		// e2.Delta.
		f := func(u float64) float64 { return e2.Delta(e1.PointAt(u)) }
		scan := scanRoots(f, -4, 4, 4000)
		// Every scanned crossing must be found analytically (within the
		// parameter window covered by the rational parameterization).
		for _, u := range scan {
			p := e1.PointAt(u)
			matched := false
			for _, q := range got {
				if p.Dist(q) < 1e-4*(1+p.Norm()) {
					matched = true
					break
				}
			}
			if !matched {
				// The rational parameterization covers t ∈ (−1,1) ⇔
				// u ∈ (−∞,∞); any miss is a genuine failure unless the
				// crossing is tangential (double root, below scan noise).
				if math.Abs(f(u-1e-5)) > 1e-7 && math.Abs(f(u+1e-5)) > 1e-7 {
					t.Fatalf("trial %d: scan crossing at u=%v (%v) missed analytically (got %v)",
						trial, u, p, got)
				}
			}
		}
		// All analytic points satisfy both edge conditions exactly.
		for _, p := range got {
			if math.Abs(e1.Delta(p)) > 1e-6*(1+p.Norm()) || math.Abs(e2.Delta(p)) > 1e-6*(1+p.Norm()) {
				t.Fatalf("trial %d: analytic intersection %v off-curve (%v, %v)",
					trial, p, e1.Delta(p), e2.Delta(p))
			}
		}
		found += len(got)
	}
	if found == 0 {
		t.Error("no intersections found across 200 random trials — scan setup broken?")
	}
}

func TestIntersectUVEdgesDegenerate(t *testing.T) {
	// Overlapping objects: no edge, no intersections.
	e1 := NewUVEdge(Circle{Pt(0, 0), 5}, Circle{Pt(4, 0), 5})
	e2 := NewUVEdge(Circle{Pt(0, 0), 1}, Circle{Pt(30, 0), 1})
	if pts := IntersectUVEdges(e1, e2); pts != nil {
		t.Errorf("degenerate edge produced intersections: %v", pts)
	}
	// Identical edges: the parameterization hits its own conic
	// everywhere; the routine must not blow up (result content is not
	// specified for coincident curves, only that it terminates).
	_ = IntersectUVEdges(e2, e2)
}

// scanRoots is the brute-force side of the comparison above: it samples
// f at n+1 equally spaced points of [lo, hi] and bisects every sign
// change down to a 1e-11 bracket.
func scanRoots(f func(float64) float64, lo, hi float64, n int) []float64 {
	var roots []float64
	step := (hi - lo) / float64(n)
	x0, f0 := lo, f(lo)
	for i := 1; i <= n; i++ {
		x1 := lo + float64(i)*step
		f1 := f(x1)
		switch {
		case f0 == 0:
			roots = append(roots, x0)
		case (f0 > 0) != (f1 > 0):
			a, b, fa := x0, x1, f0
			for b-a > 1e-11 {
				mid := a + (b-a)/2
				if (f(mid) > 0) == (fa > 0) {
					a = mid
				} else {
					b = mid
				}
			}
			roots = append(roots, a+(b-a)/2)
		}
		x0, f0 = x1, f1
	}
	return roots
}
