package core3

import (
	"math"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// DeriveScratch3 carries the reusable buffers of one 3D derivation
// worker: the expanding-ball seed buffer, the fixpoint candidate
// buffer pooled with the hash grid's center-range collection, the
// possible region whose constraint storage persists across the
// worker's whole object stream, and the cross-round bound table — so
// steady-state DeriveCR3 allocates only the returned cr-set. A scratch
// is owned by exactly one goroutine; Build3 gives each worker its own.
type DeriveScratch3 struct {
	seeds  []int32
	region PossibleRegion3
	sorter seedSorter3
	run    deriver3
}

// NewDeriveScratch3 returns an empty scratch; buffers grow on first use
// and are retained across calls.
func NewDeriveScratch3() *DeriveScratch3 { return &DeriveScratch3{} }

// deriver3 is the 3D engine's side of internal/derive for one DeriveCR3
// call: it fills the bound table's rows over the direction lattice,
// answers the fixpoint's range queries off the hash grid and bounds the
// region's radius with MaxRadius's inflation. It lives inside the
// DeriveScratch3 so that handing it to derive.Fixpoint as an interface
// allocates nothing.
type deriver3 struct {
	tab   derive.Table
	edges []Constraint3 // cached constraints, by table row
	cands []int32       // the fixpoint's candidate set

	// The call in flight.
	grid *HashGrid3
	oi   uncertain3.Object3
	objs []uncertain3.Object3
	dirs []geom3.Point3
}

// begin starts a new derive call: it drops the previous object's rows
// and precomputes the domain exits for the object's center (pure per
// direction, shared by every round).
func (e *deriver3) begin(grid *HashGrid3, oi uncertain3.Object3, objs []uncertain3.Object3, domain geom3.Box, dirs []geom3.Point3) {
	e.grid, e.oi, e.objs, e.dirs = grid, oi, objs, dirs
	e.tab.Begin(len(objs), len(dirs))
	for i, u := range dirs {
		e.tab.Exit[i] = domain.RayExit(oi.Region.C, u)
	}
}

// FillRow implements derive.Filler: candidate j's constraint and its
// hyperboloid bounds over the lattice.
func (e *deriver3) FillRow(j int32, idx int, row []float64) bool {
	c, ok := NewConstraint3(e.oi, e.objs[j])
	if !ok {
		return false
	}
	inf := math.Inf(1)
	for i, u := range e.dirs {
		if t, ok := c.Bound(u); ok {
			row[i] = t
		} else {
			row[i] = inf
		}
	}
	e.edges = append(e.edges[:idx], c)
	return true
}

// Range implements derive.Pruner over the hash grid, which collects in
// ascending id order (or by brute force without one).
func (e *deriver3) Range(radius float64, buf []int32) []int32 {
	c, self := e.oi.Region.C, e.oi.ID
	if e.grid == nil {
		for j := range e.objs {
			if e.objs[j].ID != self && e.objs[j].Region.C.Dist(c) <= radius {
				buf = append(buf, e.objs[j].ID)
			}
		}
		return buf
	}
	buf = e.grid.CenterRangeInto(geom3.Sphere{C: c, R: radius}, buf)
	w := 0
	for _, id := range buf {
		if id != self {
			buf[w] = id
			w++
		}
	}
	return buf[:w]
}

// Bound implements derive.Pruner: the inflated maximum radius of the
// region bounded by the domain and the candidates' constraints. Per
// direction the table runs MaxRadius's exact fold — domain exit first,
// then each constraint's bound in list order — over cached rows (+Inf
// compares exactly like a missing bound), and the max/inflation
// arithmetic is MaxRadius's, so the value is bitwise identical to
// building the region and calling MaxRadius(dirs).
func (e *deriver3) Bound(cands []int32) float64 {
	e.tab.Activate(cands, e)
	d := 0.0
	for _, r := range e.tab.Fold(1) {
		if r > d {
			d = r
		}
	}
	return inflate(d, len(e.dirs))
}
