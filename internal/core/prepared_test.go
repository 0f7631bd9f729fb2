package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// circleObj is a pdf-less object: constraints read only the region.
func circleObj(id int32, x, y, r float64) uncertain.Object {
	return uncertain.Object{ID: id, Region: geom.Circle{C: geom.Pt(x, y), R: r}}
}

// ulps steps the positive finite x by n representable values (n < 0
// steps down): adjacent positive floats have adjacent bit patterns.
func ulps(x float64, n int) float64 {
	return math.Float64frombits(math.Float64bits(x) + uint64(int64(n)))
}

// checkPrepared holds the prepared bound of (oi, oj) to the
// specification over dirs, bit for bit, and NewConstraint's existence
// verdict to UVEdge.Exists. It reports whether the edge exists.
func checkPrepared(t *testing.T, what string, oi, oj uncertain.Object, dirs []geom.Point) bool {
	t.Helper()
	spec := geom.NewUVEdge(oi.Region, oj.Region)
	c, ok := NewConstraint(oi, oj)
	if ok != spec.Exists() {
		t.Fatalf("%s: NewConstraint ok=%v, UVEdge.Exists=%v (%+v)", what, ok, spec.Exists(), spec)
	}
	if !ok && c != (Constraint{}) {
		t.Fatalf("%s: no edge, yet NewConstraint returned %+v", what, c)
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

// TestPreparedBoundBitwise is the bar Constraint.Bound is held to:
// (t, ok) equals geom.UVEdge.RadialBound's bit for bit over the
// 256-direction ring plus 64 random directions, on ≥ 10 000 seeded edges
// and on the degenerate families built by construction.
func TestPreparedBoundBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20100301))
	ring := make([]geom.Point, 256, 256+64)
	for i := range ring {
		ring[i] = geom.PolarUnit(2 * math.Pi * float64(i) / 256)
	}
	dirs := func() []geom.Point {
		d := ring
		for i := 0; i < 64; i++ {
			d = append(d, geom.PolarUnit(rng.Float64()*2*math.Pi))
		}
		return d
	}

	// Seeded edges at the dataset's scale; a fifth of the pairs are
	// close enough to overlap now and then.
	exist := 0
	for i := 0; i < 10000; i++ {
		spread := 10000.0
		if i%5 == 0 {
			spread = 100
		}
		oi := circleObj(0, rng.Float64()*10000, rng.Float64()*10000, rng.Float64()*40)
		oj := circleObj(1, oi.Region.C.X+(rng.Float64()-0.5)*spread, oi.Region.C.Y+(rng.Float64()-0.5)*spread, rng.Float64()*40)
		if checkPrepared(t, "seeded", oi, oj, dirs()) {
			exist++
		}
	}
	if exist < 8000 || exist == 10000 {
		t.Fatalf("seeded family: %d of 10000 edges exist; want most, not all", exist)
	}

	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*10000, rng.Float64()*10000
		fx, fy := x+(rng.Float64()-0.5)*200, y+(rng.Float64()-0.5)*200
		dist := geom.Pt(x, y).Dist(geom.Pt(fx, fy))

		// Overlapping and tangent regions: no edge, the zero constraint,
		// no bound anywhere.
		for _, s := range []float64{dist, ulps(dist, 1), dist * 1.5, dist + 40} {
			if checkPrepared(t, "overlap", circleObj(0, x, y, s/2), circleObj(1, fx, fy, s-s/2), dirs()) {
				t.Fatalf("overlap: edge exists at dist %v, S %v", dist, s)
			}
		}
		// Needles: dist − S from 1 ulp up. s/2 and s − s/2 are exact, so
		// the constraint's S is exactly s.
		for _, n := range []int{1, 2, 3, 16, 1 << 10, 1 << 20} {
			s := ulps(dist, -n)
			if !checkPrepared(t, "needle", circleObj(0, x, y, s/2), circleObj(1, fx, fy, s-s/2), dirs()) {
				t.Fatalf("needle: no edge at dist %v, S %v (%d ulps below)", dist, s, n)
			}
		}
		// S = 0: the perpendicular bisector of two points.
		if !checkPrepared(t, "bisector", circleObj(0, x, y, 0), circleObj(1, fx, fy, 0), dirs()) {
			t.Fatalf("bisector: no edge between distinct points")
		}
		// Coincident centres never have an edge, even with S = 0.
		for _, r := range []float64{0, 1, 20} {
			if checkPrepared(t, "coincident", circleObj(0, x, y, r), circleObj(1, x, y, r), dirs()) {
				t.Fatalf("coincident: edge exists at radius %v", r)
			}
		}
	}

	// den = w·dir + S exactly 0 and ±1 ulp. With Fj = Fi + (a, 0) and
	// dir.X = ½, w·dir = −a/2 exactly; S = a/2 makes den = 0 (no hit, the
	// asymptote direction), one ulp less makes it the smallest negative
	// den the pair can produce (the longest finite bound), one ulp more
	// the smallest positive one.
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*10000, rng.Float64()*10000
		fx := x + 1 + rng.Float64()*500
		a := fx - x // as rounded: w.X = x − fx is exactly −a
		half := geom.Pt(0.5, math.Sqrt(0.75))
		probe := []geom.Point{half, {X: half.X, Y: -half.Y}, {X: ulps(0.5, 1), Y: half.Y}, {X: ulps(0.5, -1), Y: half.Y}}
		for n := -1; n <= 1; n++ {
			s := ulps(a/2, n)
			oi, oj := circleObj(0, x, y, s/2), circleObj(1, fx, y, s-s/2)
			if !checkPrepared(t, "den≈0", oi, oj, append(dirs(), probe...)) {
				t.Fatalf("den≈0: no edge at a %v, S %v", a, s)
			}
			c, _ := NewConstraint(oi, oj)
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
	var zero Constraint
	for _, dir := range dirs() {
		if b, hit := zero.Bound(dir); hit || b != 0 {
			t.Fatalf("zero constraint: Bound(%v) = (%v, %v)", dir, b, hit)
		}
	}
}

// TestRadialFoldRatio is the blocking, host-independent perf gate of
// the prepared constraint (the TestKernelRatio pattern): folding 64
// seeded constraints over the 256-direction ring — syncProfile's loop —
// through Constraint.Bound must be at least minFoldRatio times faster
// than through UVEdge.RadialBound, both timed in this process,
// interleaved, best of 5.
func TestRadialFoldRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: skipped under -short and -race")
	}
	const minFoldRatio = 2.5
	const folds = 200 // per timed pass: 200 × 64 × 256 bounds
	rng := rand.New(rand.NewSource(20100301))
	oi := circleObj(0, 5000, 5000, 20)
	var cons []Constraint
	for len(cons) < 64 {
		phi, d := rng.Float64()*2*math.Pi, 60+rng.Float64()*400
		if c, ok := NewConstraint(oi, circleObj(int32(len(cons)+1), 5000+d*math.Cos(phi), 5000+d*math.Sin(phi), 20)); ok {
			cons = append(cons, c)
		}
	}
	dirs := make([]geom.Point, 256)
	for i := range dirs {
		dirs[i] = geom.PolarUnit(2 * math.Pi * float64(i) / 256)
	}
	radius := make([]float64, len(dirs))
	reset := func() {
		for i := range radius {
			radius[i] = math.Inf(1)
		}
	}
	sum := func() (s float64) {
		for _, r := range radius {
			s += r
		}
		return s
	}
	prepared := func() time.Duration {
		start := time.Now()
		for f := 0; f < folds; f++ {
			reset()
			for j := range cons {
				c := &cons[j]
				for i, dir := range dirs {
					if b, ok := c.Bound(dir); ok && b < radius[i] {
						radius[i] = b
					}
				}
			}
		}
		return time.Since(start)
	}
	spec := func() time.Duration {
		start := time.Now()
		for f := 0; f < folds; f++ {
			reset()
			for j := range cons {
				e := &cons[j].Edge
				for i, dir := range dirs {
					if b, ok := e.RadialBound(dir); ok && b < radius[i] {
						radius[i] = b
					}
				}
			}
		}
		return time.Since(start)
	}
	fast, ref := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var fastSum, refSum float64
	for rep := 0; rep < 5; rep++ {
		if d := prepared(); d < fast {
			fast = d
		}
		fastSum = sum()
		if d := spec(); d < ref {
			ref = d
		}
		refSum = sum()
	}
	if math.Float64bits(fastSum) != math.Float64bits(refSum) {
		t.Fatalf("folded profiles differ: prepared Σ %v, spec Σ %v", fastSum, refSum)
	}
	ratio := float64(ref) / float64(fast)
	t.Logf("spec %v, prepared %v per %d folds of %d×%d: %.2fx", ref, fast, folds, len(cons), len(dirs), ratio)
	if ratio < minFoldRatio {
		t.Errorf("prepared fold is %.2fx the spec, want ≥ %.1fx", ratio, minFoldRatio)
	}
}
