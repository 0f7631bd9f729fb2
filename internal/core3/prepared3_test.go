package core3

import (
	"math"
	"math/rand"
	"testing"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// ballObj is a pdf-less object: constraints read only the region.
func ballObj(id int32, c geom3.Point3, r float64) uncertain3.Object3 {
	return uncertain3.Object3{ID: id, Region: geom3.Sphere{C: c, R: r}}
}

// ulps steps the positive finite x by n representable values (n < 0
// steps down): adjacent positive floats have adjacent bit patterns.
func ulps(x float64, n int) float64 {
	return math.Float64frombits(math.Float64bits(x) + uint64(int64(n)))
}

// checkPrepared3 holds the prepared bound of (oi, oj) to the
// specification over dirs, bit for bit, and NewConstraint3's existence
// verdict to UVEdge3.Exists. It reports whether the edge exists.
func checkPrepared3(t *testing.T, what string, oi, oj uncertain3.Object3, dirs []geom3.Point3) bool {
	t.Helper()
	spec := geom3.NewUVEdge3(oi.Region, oj.Region)
	c, ok := NewConstraint3(oi, oj)
	if ok != spec.Exists() {
		t.Fatalf("%s: NewConstraint3 ok=%v, UVEdge3.Exists=%v (%+v)", what, ok, spec.Exists(), spec)
	}
	if !ok && c != (Constraint3{}) {
		t.Fatalf("%s: no edge, yet NewConstraint3 returned %+v", what, c)
	}
	for _, dir := range dirs {
		got, gotOK := c.Bound(dir)
		want, wantOK := spec.RadialBound(dir)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: dir %v: prepared (%v, %v) [%#x], spec (%v, %v) [%#x] (%+v)", what, dir,
				got, gotOK, math.Float64bits(got), want, wantOK, math.Float64bits(want), spec)
		}
	}
	return ok
}

// TestPreparedBound3Bitwise is core's TestPreparedBoundBitwise for
// Constraint3.Bound against geom3.UVEdge3.RadialBound: the 256-point
// Fibonacci lattice plus 64 random directions, ≥ 10 000 seeded edges
// and the degenerate families built by construction.
func TestPreparedBound3Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20100301))
	lattice := geom3.FibonacciSphere(256)
	lattice = lattice[:256:256]
	dirs := func() []geom3.Point3 {
		d := lattice
		for i := 0; i < 64; i++ {
			d = append(d, geom3.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit())
		}
		return d
	}
	pt := func(side float64) geom3.Point3 {
		return geom3.Point3{X: rng.Float64() * side, Y: rng.Float64() * side, Z: rng.Float64() * side}
	}

	exist := 0
	for i := 0; i < 10000; i++ {
		spread := 1000.0
		if i%5 == 0 {
			spread = 60
		}
		ci := pt(1000)
		cj := ci.Add(pt(spread)).Sub(geom3.Point3{X: spread / 2, Y: spread / 2, Z: spread / 2})
		if checkPrepared3(t, "seeded", ballObj(0, ci, rng.Float64()*20), ballObj(1, cj, rng.Float64()*20), dirs()) {
			exist++
		}
	}
	if exist < 8000 || exist == 10000 {
		t.Fatalf("seeded family: %d of 10000 edges exist; want most, not all", exist)
	}

	for i := 0; i < 500; i++ {
		ci := pt(1000)
		cj := ci.Add(pt(100))
		dist := ci.Dist(cj)

		// Overlapping and tangent balls: no edge, the zero constraint, no
		// bound anywhere.
		for _, s := range []float64{dist, ulps(dist, 1), dist * 1.5, dist + 40} {
			if checkPrepared3(t, "overlap", ballObj(0, ci, s/2), ballObj(1, cj, s-s/2), dirs()) {
				t.Fatalf("overlap: edge exists at dist %v, S %v", dist, s)
			}
		}
		// Needles: dist − S from 1 ulp up (s/2 + (s − s/2) is exactly s).
		for _, n := range []int{1, 2, 3, 16, 1 << 10, 1 << 20} {
			s := ulps(dist, -n)
			if !checkPrepared3(t, "needle", ballObj(0, ci, s/2), ballObj(1, cj, s-s/2), dirs()) {
				t.Fatalf("needle: no edge at dist %v, S %v (%d ulps below)", dist, s, n)
			}
		}
		// S = 0: the bisector plane of two points.
		if !checkPrepared3(t, "bisector", ballObj(0, ci, 0), ballObj(1, cj, 0), dirs()) {
			t.Fatalf("bisector: no edge between distinct points")
		}
		// Coincident centres never have an edge, even with S = 0.
		for _, r := range []float64{0, 1, 20} {
			if checkPrepared3(t, "coincident", ballObj(0, ci, r), ballObj(1, ci, r), dirs()) {
				t.Fatalf("coincident: edge exists at radius %v", r)
			}
		}
	}

	// den = w·dir + S exactly 0 and ±1 ulp: Fj = Fi + (a, 0, 0) and
	// dir.X = ½ give w·dir = −a/2 exactly, so S = a/2 stepped by n ulps
	// gives den = n ulps.
	for i := 0; i < 500; i++ {
		ci := pt(1000)
		cj := ci
		cj.X += 1 + rng.Float64()*200
		a := cj.X - ci.X // as rounded: w.X = ci.X − cj.X is exactly −a
		half := geom3.Point3{X: 0.5, Y: math.Sqrt(0.75)}
		probe := []geom3.Point3{half, {X: 0.5, Z: -half.Y}, {X: ulps(0.5, 1), Y: half.Y}, {X: ulps(0.5, -1), Z: half.Y}}
		for n := -1; n <= 1; n++ {
			s := ulps(a/2, n)
			oi, oj := ballObj(0, ci, s/2), ballObj(1, cj, s-s/2)
			if !checkPrepared3(t, "den≈0", oi, oj, append(dirs(), probe...)) {
				t.Fatalf("den≈0: no edge at a %v, S %v", a, s)
			}
			c, _ := NewConstraint3(oi, oj)
			den := c.Edge.Fi.Sub(c.Edge.Fj).Dot(half) + c.Edge.S
			if (n < 0) != (den < 0) || (n == 0) != (den == 0) {
				t.Fatalf("den≈0: S %d ulps off a/2 gives den %v", n, den)
			}
			if _, hit := c.Bound(half); hit != (n < 0) {
				t.Fatalf("den≈0: den %v, hit %v", den, hit)
			}
		}
	}

	// The zero constraint reports no bound.
	var zero Constraint3
	for _, dir := range dirs() {
		if b, hit := zero.Bound(dir); hit || b != 0 {
			t.Fatalf("zero constraint: Bound(%v) = (%v, %v)", dir, b, hit)
		}
	}
}
