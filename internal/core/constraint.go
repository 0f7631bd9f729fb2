package core

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// Constraint is the outside region Xi(j) of one UV-edge, tagged with the
// identity of the reference object Oj. A point inside the outside
// region can never have Oi as a nearest neighbor.
//
// It is PREPARED: NewConstraint proves the edge exists and stores the
// pure per-edge subexpressions of geom.UVEdge.RadialBound — the focal
// offset w = Fi − Fj and the numerator S² − |w|² — so Bound, the one
// radial-bound evaluation every per-direction loop of derivation runs,
// pays only the direction-dependent arithmetic.
type Constraint struct {
	Obj  int32 // j, the object on the far side of the edge
	Edge geom.UVEdge
	w    geom.Point
	num  float64
}

// NewConstraint builds the constraint Oi gains from Oj. ok is false when
// the two uncertainty regions overlap, in which case Xi(j) is empty and
// no constraint exists (Section III-C).
func NewConstraint(oi, oj uncertain.Object) (Constraint, bool) {
	e := geom.NewUVEdge(oi.Region, oj.Region)
	if !e.Exists() {
		return Constraint{}, false
	}
	w := e.Fi.Sub(e.Fj)
	return Constraint{Obj: oj.ID, Edge: e, w: w, num: e.S*e.S - w.NormSq()}, true
}

// Bound is Edge.RadialBound(dir) — the distance at which the ray
// Fi + t·dir enters the outside region, ok = false when it never does —
// with the existence test and the per-edge subexpressions taken from
// construction. The remaining operations are RadialBound's, one for
// one, so (t, ok) is bitwise identical. The zero Constraint reports no
// bound (den = 0).
func (c *Constraint) Bound(dir geom.Point) (t float64, ok bool) {
	den := c.w.Dot(dir) + c.Edge.S
	if den >= 0 {
		return 0, false
	}
	return c.num / (2 * den), true
}

// Excludes reports whether p lies strictly inside the outside region.
func (c Constraint) Excludes(p geom.Point) bool { return c.Edge.InOutside(p) }
