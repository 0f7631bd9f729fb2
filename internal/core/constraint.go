package core

import (
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// Constraint is the outside region Xi(j) of one UV-edge, tagged with the
// identity of the reference object Oj. A point inside the outside
// region can never have Oi as a nearest neighbor.
type Constraint struct {
	Obj  int32 // j, the object on the far side of the edge
	Edge geom.UVEdge
}

// NewConstraint builds the constraint Oi gains from Oj. ok is false when
// the two uncertainty regions overlap, in which case Xi(j) is empty and
// no constraint exists (Section III-C).
func NewConstraint(oi, oj uncertain.Object) (Constraint, bool) {
	e := geom.NewUVEdge(oi.Region, oj.Region)
	if !e.Exists() {
		return Constraint{}, false
	}
	return Constraint{Obj: oj.ID, Edge: e}, true
}

// Excludes reports whether p lies strictly inside the outside region.
func (c Constraint) Excludes(p geom.Point) bool { return c.Edge.InOutside(p) }
