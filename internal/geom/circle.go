package geom

import (
	"fmt"
	"math"
)

// Circle is the closed disk with center C and radius R ≥ 0. Uncertainty
// regions, minimum bounding circles and pruning d-bounds are Circles.
type Circle struct {
	C Point
	R float64
}

// String implements fmt.Stringer.
func (c Circle) String() string {
	return fmt.Sprintf("Cir((%g,%g),%g)", c.C.X, c.C.Y, c.R)
}

// Contains reports whether p lies in the closed disk.
func (c Circle) Contains(p Point) bool {
	return c.C.DistSq(p) <= c.R*c.R
}

// Overlaps reports whether the two closed disks intersect.
func (c Circle) Overlaps(o Circle) bool {
	s := c.R + o.R
	return c.C.DistSq(o.C) <= s*s
}

// ContainsCircle reports whether o lies entirely inside c.
func (c Circle) ContainsCircle(o Circle) bool {
	return c.C.Dist(o.C)+o.R <= c.R+1e-12*(c.R+1)
}

// Area returns the area of the disk.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// BoundingRect returns the smallest axis-aligned rectangle containing c.
func (c Circle) BoundingRect() Rect {
	return Rect{
		Point{c.C.X - c.R, c.C.Y - c.R},
		Point{c.C.X + c.R, c.C.Y + c.R},
	}
}

// OverlapsRect reports whether the disk intersects the rectangle.
func (c Circle) OverlapsRect(r Rect) bool {
	return r.MinDist(c.C) <= c.R
}

// LensArea returns the area of the intersection of the two disks.
func LensArea(a, b Circle) float64 {
	return LensAreaAt(a.C.Dist(b.C), a.R, b.R)
}

// LensAreaAt is LensArea on hoisted scalars: the intersection area of
// two disks of radii ra and rb whose centres are d apart. It is exact
// (up to floating point) and handles containment and disjointness.
// Callers that sweep one radius against a fixed pair of centres (the
// probability kernel) compute d once instead of once per evaluation.
func LensAreaAt(d, ra, rb float64) float64 {
	if ra == 0 || rb == 0 {
		return 0
	}
	if d >= ra+rb {
		return 0
	}
	if d <= math.Abs(ra-rb) {
		r := math.Min(ra, rb)
		return math.Pi * r * r
	}
	return LensCrossing(d, d*d, ra, ra*ra, rb, rb*rb)
}

// LensCrossing is the lens core of LensAreaAt for two circles whose
// boundaries cross, |ra − rb| < d < ra + rb, with d, ra and rb passed
// beside their squares so a sweep can hoist them. It makes no
// containment or disjointness test. At a tangency s clamps to 0 and it
// gives the tangent value — 0 outside, π·min(ra, rb)² inside — so a
// caller's crossing test may be off by rounding there.
//
// s = √((−d+ra+rb)(d+ra−rb)(d−ra+rb)(d+ra+rb)) is four times the area
// of the triangle (d, ra, rb). The half-angles the chord subtends at the
// two centres have sines s/(2·d·ra), s/(2·d·rb) and, by the cosine rule,
// cosines (d²+ra²−rb²)/(2·d·ra), (d²+rb²−ra²)/(2·d·rb); atan2 takes each
// pair without its common positive denominator, and the triangle terms
// ra²·sinα·cosα + rb²·sinβ·cosβ sum to s/2. Taking the sine from the
// factored product keeps the angle accurate near tangency, where acos
// of the cosine alone loses the bits that used to cancel against
// sin·cos.
func LensCrossing(d, d2, ra, ra2, rb, rb2 float64) float64 {
	k := (-d + ra + rb) * (d + ra - rb) * (d - ra + rb) * (d + ra + rb)
	if k < 0 {
		k = 0
	}
	s := math.Sqrt(k)
	t := ra2 - rb2
	return ra2*atan2(s, d2+t) + rb2*atan2(s, d2-t) - s/2
}

// atan2 is math.Atan2, bitwise, where the lens core calls it: y ≥ 0
// (a square root) and both arguments finite. It skips the NaN and
// infinity cases of math.Atan2's prologue, and with y ≥ 0 the quadrant
// fix-up has one branch.
func atan2(y, x float64) float64 {
	switch {
	case y == 0:
		if x >= 0 && !math.Signbit(x) {
			return y
		}
		return math.Copysign(math.Pi, y)
	case x == 0:
		return math.Pi / 2
	}
	q := math.Atan(y / x)
	if x < 0 {
		return q + math.Pi
	}
	return q
}

// clamp restricts v to [lo, hi]; used to guard acos against rounding.
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
