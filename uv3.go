package uvdiagram

import (
	"fmt"

	"uvdiagram/internal/core3"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/prob3"
	"uvdiagram/internal/uncertain3"
)

// Three-dimensional UV-diagrams — the multi-dimensional extension the
// paper's conclusion lists as future work. Objects are uncertain balls
// with radial shell-histogram pdfs; UV-edges are hyperboloid sheets;
// the adaptive grid is an octree with an 8-corner overlap test.

// Re-exported 3D types.
type (
	// Point3 is a location in 3-space.
	Point3 = geom3.Point3
	// Box is an axis-aligned box (3D domains).
	Box = geom3.Box
	// Sphere is a ball (3D uncertainty regions).
	Sphere = geom3.Sphere
	// Object3 is a 3D uncertain object.
	Object3 = uncertain3.Object3
	// PDF3 is a radial shell histogram over the unit ball.
	PDF3 = uncertain3.PDF3
	// Answer3 is a 3D PNN result.
	Answer3 = core3.Answer3
	// QueryStats3 carries 3D per-query costs.
	QueryStats3 = core3.QueryStats3
	// BuildStats3 carries 3D construction statistics.
	BuildStats3 = core3.BuildStats3
	// Options3 tune the 3D build; the zero value selects defaults
	// mirroring the 2D configuration.
	Options3 = core3.Options3
)

// Typed Build3 validation failures, checkable with errors.Is.
var (
	// ErrSparseIDs reports 3D objects whose IDs are not dense 0..n−1.
	ErrSparseIDs = core3.ErrSparseIDs
	// ErrOutOfDomain3 reports a 3D object whose center lies outside the
	// domain box (the 3D counterpart of ErrOutOfDomain).
	ErrOutOfDomain3 = core3.ErrOutOfDomain3
)

// Pt3 returns the 3D point (x, y, z).
func Pt3(x, y, z float64) Point3 { return geom3.P3(x, y, z) }

// CubeDomain returns the cubic domain [0, side]³.
func CubeDomain(side float64) Box { return geom3.Cube(side) }

// NewObject3 builds a 3D uncertain object with a spherical uncertainty
// region. A nil pdf defaults to volume-uniform; use GaussianPDF3() for
// the 3D analogue of the paper's default.
func NewObject3(id int32, x, y, z, radius float64, pdf *PDF3) Object3 {
	return uncertain3.New3(id, Sphere{C: Pt3(x, y, z), R: radius}, pdf)
}

// GaussianPDF3 returns the 3D analogue of the paper's default pdf: 20
// shells of an isotropic Gaussian with σ = diameter/6.
func GaussianPDF3() *PDF3 { return uncertain3.PaperGaussian3() }

// UniformPDF3 returns the volume-uniform pdf with 20 shells.
func UniformPDF3() *PDF3 { return uncertain3.Uniform3(uncertain3.DefaultBins) }

// DB3 is a built 3D UV-diagram database.
type DB3 struct {
	objs   []Object3
	domain Box
	index  *core3.OctIndex
	built  BuildStats3
}

// Build3 indexes 3D objects (dense IDs 0..n−1 required) over the given
// domain. opts may be nil for defaults.
func Build3(objects []Object3, domain Box, opts *Options3) (*DB3, error) {
	o := core3.DefaultOptions3()
	if opts != nil {
		o = *opts
	}
	ix, stats, err := core3.Build3(objects, domain, o)
	if err != nil {
		return nil, err
	}
	return &DB3{objs: objects, domain: domain, index: ix, built: stats}, nil
}

// Len returns the number of indexed objects.
func (db *DB3) Len() int { return len(db.objs) }

// Domain returns the indexed domain.
func (db *DB3) Domain() Box { return db.domain }

// BuildStats returns the construction statistics.
func (db *DB3) BuildStats() BuildStats3 { return db.built }

// IndexStats returns the octree shape.
func (db *DB3) IndexStats() core3.IndexStats3 { return db.index.Stats() }

// Object returns object id.
func (db *DB3) Object(id int32) (Object3, error) {
	if id < 0 || int(id) >= len(db.objs) {
		return Object3{}, fmt.Errorf("uvdiagram: unknown 3D object %d", id)
	}
	return db.objs[id], nil
}

// PNN answers the 3D probabilistic nearest-neighbor query at q.
func (db *DB3) PNN(q Point3) ([]Answer3, QueryStats3, error) {
	return db.index.PNN(q)
}

// PNNBruteForce answers the same query by scanning every object — the
// baseline used in tests and benchmarks.
func (db *DB3) PNNBruteForce(q Point3) []Answer3 {
	ps := prob3.Probs3(db.objs, q)
	var answers []Answer3
	for i, p := range ps {
		if p > 0 {
			answers = append(answers, Answer3{ID: db.objs[i].ID, Prob: p})
		}
	}
	return answers
}
