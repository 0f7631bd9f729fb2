package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle, the closed region
// [Min.X, Max.X] × [Min.Y, Max.Y]. The UV-diagram domain, quad-tree node
// regions and R-tree MBRs are all Rects.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle with the given bounds, swapping
// coordinates if necessary so that Min ≤ Max holds componentwise.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// Square returns the square [0,side]×[0,side]; the paper's domain D.
func Square(side float64) Rect { return Rect{Point{0, 0}, Point{side, side}} }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Overlaps reports whether the closed rectangles r and s intersect.
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Corners returns the four corner points of r in counter-clockwise order
// starting at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Quadrant returns the k-th quarter of r (k in 0..3) in the order
// SW, SE, NW, NE. The four quadrants tile r exactly; this is the child
// layout of the UV-index quad-tree.
func (r Rect) Quadrant(k int) Rect {
	c := r.Center()
	switch k {
	case 0:
		return Rect{r.Min, c}
	case 1:
		return Rect{Point{c.X, r.Min.Y}, Point{r.Max.X, c.Y}}
	case 2:
		return Rect{Point{r.Min.X, c.Y}, Point{c.X, r.Max.Y}}
	case 3:
		return Rect{c, r.Max}
	}
	panic(fmt.Sprintf("geom: quadrant index %d out of range", k))
}

// QuadrantFor returns the index (per Quadrant) of the quarter of r that
// contains p, resolving boundary ties toward the higher quadrant so that
// descent in the quad-tree is deterministic.
func (r Rect) QuadrantFor(p Point) int {
	c := r.Center()
	k := 0
	if p.X >= c.X {
		k |= 1
	}
	if p.Y >= c.Y {
		k |= 2
	}
	return k
}

// MinDist returns the smallest Euclidean distance from p to r
// (zero when p is inside). Like Point.Norm it takes the plain square
// root; the builtin max has math.Max's NaN and signed-zero rules.
func (r Rect) MinDist(p Point) float64 {
	dx := max(r.Min.X-p.X, 0, p.X-r.Max.X)
	dy := max(r.Min.Y-p.Y, 0, p.Y-r.Max.Y)
	return Point{dx, dy}.Norm()
}

// MaxDist returns the largest Euclidean distance from p to a point of r,
// attained at one of the corners.
func (r Rect) MaxDist(p Point) float64 {
	m := 0.0
	for _, c := range r.Corners() {
		if d := p.Dist(c); d > m {
			m = d
		}
	}
	return m
}

// RayExit returns the distance t ≥ 0 at which the ray from+t·dir leaves
// the rectangle. from must lie inside r (or on its boundary with dir
// pointing inward); dir must be non-zero but need not be unit length —
// the returned t is in units of |dir|.
func (r Rect) RayExit(from, dir Point) float64 {
	t := math.Inf(1)
	if dir.X > 0 {
		t = math.Min(t, (r.Max.X-from.X)/dir.X)
	} else if dir.X < 0 {
		t = math.Min(t, (r.Min.X-from.X)/dir.X)
	}
	if dir.Y > 0 {
		t = math.Min(t, (r.Max.Y-from.Y)/dir.Y)
	} else if dir.Y < 0 {
		t = math.Min(t, (r.Min.Y-from.Y)/dir.Y)
	}
	if math.IsInf(t, 1) || t < 0 {
		return 0
	}
	return t
}
