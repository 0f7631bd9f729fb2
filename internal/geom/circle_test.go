package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCircleContains(t *testing.T) {
	c := Circle{Pt(0, 0), 2}
	if !c.Contains(Pt(2, 0)) {
		t.Error("boundary point should be contained (closed disk)")
	}
	if c.Contains(Pt(2.0001, 0)) {
		t.Error("outside point contained")
	}
}

func TestCircleOverlaps(t *testing.T) {
	a := Circle{Pt(0, 0), 1}
	b := Circle{Pt(2, 0), 1}
	cc := Circle{Pt(2.001, 0), 1}
	if !a.Overlaps(b) {
		t.Error("tangent circles should overlap (closed)")
	}
	if a.Overlaps(cc) {
		t.Error("separated circles overlap")
	}
}

func TestContainsCircle(t *testing.T) {
	big := Circle{Pt(0, 0), 5}
	small := Circle{Pt(1, 1), 2}
	if !big.ContainsCircle(small) {
		t.Error("big should contain small")
	}
	if small.ContainsCircle(big) {
		t.Error("small contains big")
	}
}

func TestBoundingRect(t *testing.T) {
	c := Circle{Pt(3, -1), 2}
	r := c.BoundingRect()
	if r != NewRect(1, -3, 5, 1) {
		t.Errorf("BoundingRect = %v", r)
	}
}

func TestOverlapsRect(t *testing.T) {
	c := Circle{Pt(0, 0), 1}
	if !c.OverlapsRect(NewRect(0.5, 0.5, 2, 2)) {
		t.Error("should overlap")
	}
	// Rect whose corner is just beyond the radius diagonally.
	if c.OverlapsRect(NewRect(0.8, 0.8, 2, 2)) {
		t.Error("corner outside circle should not overlap")
	}
}

func TestLensAreaKnown(t *testing.T) {
	// Disjoint.
	if a := LensArea(Circle{Pt(0, 0), 1}, Circle{Pt(3, 0), 1}); a != 0 {
		t.Errorf("disjoint lens = %v", a)
	}
	// Contained.
	if a := LensArea(Circle{Pt(0, 0), 3}, Circle{Pt(0.5, 0), 1}); !almostEq(a, math.Pi, 1e-12) {
		t.Errorf("contained lens = %v, want π", a)
	}
	// Same circle.
	c := Circle{Pt(1, 1), 2}
	if a := LensArea(c, c); !almostEq(a, c.Area(), 1e-12) {
		t.Errorf("self lens = %v", a)
	}
	// Classic: two unit circles at distance 1. Known closed form:
	// 2·acos(1/2) − (1/2)·sqrt(3) ... full formula below.
	want := 2*1*1*math.Acos(0.5) - 0.5*math.Sqrt(4-1)
	if a := LensArea(Circle{Pt(0, 0), 1}, Circle{Pt(1, 0), 1}); !almostEq(a, want, 1e-12) {
		t.Errorf("unit lens = %v, want %v", a, want)
	}
}

// TestLensAreaMonteCarlo validates LensArea against sampling for random
// circle pairs.
func TestLensAreaMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		a := Circle{Pt(rng.Float64()*4, rng.Float64()*4), 0.5 + rng.Float64()*2}
		b := Circle{Pt(rng.Float64()*4, rng.Float64()*4), 0.5 + rng.Float64()*2}
		exact := LensArea(a, b)
		// Sample within a's disk.
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			// Uniform in disk a.
			r := a.R * math.Sqrt(rng.Float64())
			phi := rng.Float64() * 2 * math.Pi
			p := a.C.Add(PolarUnit(phi).Scale(r))
			if b.Contains(p) {
				hits++
			}
		}
		mc := float64(hits) / n * a.Area()
		tol := 4 * a.Area() / math.Sqrt(n) // ~4σ
		if math.Abs(mc-exact) > tol+1e-9 {
			t.Errorf("trial %d: lens exact %v vs MC %v (tol %v)", trial, exact, mc, tol)
		}
	}
}

func TestLensAreaSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		a := Circle{Pt(rng.Float64()*10, rng.Float64()*10), rng.Float64() * 3}
		b := Circle{Pt(rng.Float64()*10, rng.Float64()*10), rng.Float64() * 3}
		if !almostEq(LensArea(a, b), LensArea(b, a), 1e-12) {
			t.Fatalf("lens not symmetric for %v %v", a, b)
		}
		l := LensArea(a, b)
		if l < 0 || l > math.Min(a.Area(), b.Area())+1e-12 {
			t.Fatalf("lens %v out of range for %v %v", l, a, b)
		}
	}
}

// stripLensArea is the area of the intersection of the disks of radii
// ra and rb whose centres are d apart, by integrating the height of the
// overlap of their two chords over the abscissa — a check that shares
// no formula with LensAreaAt (nor with the acos/sin/cos form it
// replaced): square roots only. With disk A at the origin and disk B at
// (d, 0), the chord at x has half-height √((ra−x)(ra+x)) in A and
// √((rb−(x−d))(rb+(x−d))) in B, and the lower of the two switches only
// at the radical line. Each side of it is integrated by composite
// Simpson under x = a + (b−a)(3u²−2u³), which cancels the square-root
// singularity where a chord closes.
func stripLensArea(d, ra, rb float64) float64 {
	lo, hi := math.Max(-ra, d-rb), math.Min(ra, d+rb)
	if hi <= lo {
		return 0
	}
	height := func(x float64) float64 {
		ha := (ra - x) * (ra + x)
		hb := (rb - (x - d)) * (rb + (x - d))
		if h := math.Min(ha, hb); h > 0 {
			return 2 * math.Sqrt(h)
		}
		return 0
	}
	piece := func(a, b float64) float64 {
		const n = 4096 // Simpson intervals (even)
		sum := 0.0
		for i := 0; i <= n; i++ {
			u := float64(i) / n
			f := height(a+(b-a)*u*u*(3-2*u)) * 6 * u * (1 - u)
			switch {
			case i == 0 || i == n:
				sum += f
			case i%2 == 1:
				sum += 4 * f
			default:
				sum += 2 * f
			}
		}
		return sum * (b - a) / (3 * n)
	}
	if d > 0 {
		if cut := (d*d + ra*ra - rb*rb) / (2 * d); cut > lo && cut < hi {
			return piece(lo, cut) + piece(cut, hi)
		}
	}
	return piece(lo, hi)
}

// TestLensAreaAtMatchesStripIntegration pins LensAreaAt to ≤ 1e-7
// relative against stripLensArea on a seeded grid of generic,
// near-tangent (the lens is a sliver 1e-2 … 1e-5 of the smaller radius
// wide) and near-contained (the smaller disk pokes out by as little)
// pairs.
func TestLensAreaAtMatchesStripIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(20100301))
	worst := 0.0
	for trial := 0; trial < 600; trial++ {
		ra := math.Pow(10, rng.Float64()*5-2)
		rb := ra * math.Pow(10, rng.Float64()*4-2)
		small := math.Min(ra, rb)
		gap := small * math.Pow(10, -2-3*rng.Float64())
		var d float64
		switch trial % 3 {
		case 0: // generic partial overlap
			d = math.Abs(ra-rb) + (ra+rb-math.Abs(ra-rb))*rng.Float64()
		case 1: // near external tangency
			d = ra + rb - gap
		case 2: // near internal tangency
			d = math.Abs(ra-rb) + gap
		}
		got, want := LensAreaAt(d, ra, rb), stripLensArea(d, ra, rb)
		if got <= 0 || want <= 0 {
			t.Fatalf("trial %d: d=%v ra=%v rb=%v: lens %v, strips %v", trial, d, ra, rb, got, want)
		}
		rel := math.Abs(got-want) / want
		worst = math.Max(worst, rel)
		if rel > 1e-7 {
			t.Errorf("trial %d: d=%v ra=%v rb=%v: lens %v, strips %v (rel %.3g)", trial, d, ra, rb, got, want, rel)
		}
	}
	t.Logf("max relative difference %.3g", worst)
}

// TestAtan2MatchesMath holds the lens core's angle helper to
// math.Atan2, bitwise, on its domain (y ≥ 0, both finite): every zero
// and sign case of the prologue it skips, quotients that underflow to 0
// or overflow to ∞, then a seeded log-uniform sweep.
func TestAtan2MatchesMath(t *testing.T) {
	const tiny, huge = 5e-324, 1e300
	negZero := math.Copysign(0, -1)
	cases := [][2]float64{ // {y, x}
		{0, 1}, {0, tiny}, {0, huge}, // y = 0, x > 0
		{0, 0}, {0, negZero}, // y = 0, x = ±0
		{0, -1}, {0, -tiny}, // y = 0, x < 0
		{negZero, 1}, {negZero, 0}, {negZero, -1}, // y = −0, as √(−0) gives
		{1, 0}, {tiny, 0}, {huge, negZero}, // x = 0, y > 0
		{1, -1}, {3, -4}, {1, -1e-3}, {1e-3, -1}, // negative x
		{1, 1}, {4, 3}, {1e-3, 1}, // positive x
		{1 / huge, huge}, {tiny, 1}, {1 / huge, -huge}, {tiny, -1}, // y/x → ±0
		{huge, 1 / huge}, {1, tiny}, {huge, -1 / huge}, {1, -tiny}, // y/x → ±∞
	}
	rng := rand.New(rand.NewSource(20100307))
	for i := 0; i < 20000; i++ {
		y, x := math.Pow(10, rng.Float64()*40-20), math.Pow(10, rng.Float64()*40-20)
		if rng.Intn(2) == 0 {
			x = -x
		}
		cases = append(cases, [2]float64{y, x})
	}
	for _, c := range cases {
		if got, want := atan2(c[0], c[1]), math.Atan2(c[0], c[1]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("atan2(%v, %v) = %v, math.Atan2 %v", c[0], c[1], got, want)
		}
	}
}
