// Package geom provides the exact planar geometry underlying the
// UV-diagram: points, rectangles, circles, convex hulls, minimum
// enclosing circles, hyperbolic UV-edges and their conic intersections.
//
// All coordinates are float64. The package is purely computational and
// allocation-light; it has no dependencies outside the standard library.
package geom

import "math"

// Point is a location or a displacement vector in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns k·p.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
// It is positive when q lies counter-clockwise of p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p: the plain square root of the
// squared length. math.Hypot's rescaling only guards x² + y² against
// overflow, and derivation squares the same coordinates anyway (the
// UV-edge numerator S² − |w|²), so that guard could never matter.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// NormSq returns the squared Euclidean length of p.
func (p Point) NormSq() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 { return p.Sub(q).NormSq() }

// Unit returns p scaled to unit length. The unit of the zero vector is
// (1, 0) so that callers never receive NaNs.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return Point{1, 0}
	}
	return Point{p.X / n, p.Y / n}
}

// Angle returns the polar angle of p, atan2(Y, X), in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Rotate returns p rotated counter-clockwise by theta radians about the
// origin.
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{c*p.X - s*p.Y, s*p.X + c*p.Y}
}

// PolarUnit returns the unit vector at polar angle phi radians.
func PolarUnit(phi float64) Point {
	s, c := math.Sincos(phi)
	return Point{c, s}
}

// Lerp returns the point (1-t)·a + t·b.
func Lerp(a, b Point, t float64) Point {
	return Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// NormalizeAngle maps phi into [0, 2π).
func NormalizeAngle(phi float64) float64 {
	phi = math.Mod(phi, 2*math.Pi)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	return phi
}
