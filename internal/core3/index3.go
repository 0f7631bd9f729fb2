package core3

import (
	"fmt"
	"math"
	"sort"
	"time"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob3"
	"uvdiagram/internal/uncertain3"
)

// Options3 configure the 3D build and octree index.
type Options3 struct {
	// M is the maximum number of non-leaf octree nodes (paper's M,
	// default 4000).
	M int
	// SplitTheta is the split threshold Tθ of Equation 10, applied to
	// the minimum of the eight children (default 1).
	SplitTheta float64
	// PageSize is the simulated disk page size (default 4 KB).
	PageSize int
	// MaxDepth bounds the octree depth (default 18).
	MaxDepth int
	// Dirs is the size of the Fibonacci direction lattice used for
	// radial bounds (default 1024).
	Dirs int
	// Workers parallelizes the per-object derivation phase of Build3
	// across goroutines; results are identical to a sequential build.
	// 0 or 1 means sequential.
	Workers int
}

// DefaultOptions3 mirrors the paper's 2D configuration.
func DefaultOptions3() Options3 {
	return Options3{M: 4000, SplitTheta: 1.0, PageSize: pager.DefaultPageSize, MaxDepth: 18, Dirs: 1024}
}

func (o *Options3) normalize() {
	if o.M <= 0 {
		o.M = 4000
	}
	if o.SplitTheta <= 0 {
		o.SplitTheta = 1.0
	}
	if o.PageSize <= 0 {
		o.PageSize = pager.DefaultPageSize
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 18
	}
	if o.Dirs <= 0 {
		o.Dirs = 1024
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// OctIndex is the 3D UV-index: an adaptive octree whose leaves list
// every object whose 3D UV-cell (represented by cr-object ids) overlaps
// the leaf box, decided by the 8-corner test. The grid itself is the
// shared agrid.Grid; the octree supplies its octants, the overlap test
// and <ID, MBS, pointer> leaf tuples.
type OctIndex struct {
	opts Options3
	objs []uncertain3.Object3
	crOf [][]int32
	g    *agrid.Grid[geom3.Box]
}

// newOctIndex prepares an octree over the objects, with an empty
// registry and no tree yet: Build3 and LoadOctIndex fill the registry
// and publish the tree. It fails when a page of opts.PageSize bytes
// holds no leaf tuple, or more than its count prefix can number.
func newOctIndex(objs []uncertain3.Object3, domain geom3.Box, opts Options3) (*OctIndex, error) {
	opts.normalize()
	ix := &OctIndex{opts: opts, objs: objs, crOf: make([][]int32, len(objs))}
	shape := agrid.Shape[geom3.Box]{
		Fanout:     8,
		Child:      geom3.Box.Octant,
		Overlaps:   ix.overlaps,
		PerPage:    pager.TuplesPerPage3(opts.PageSize),
		EncodeLeaf: ix.encodeLeaf,
	}
	g, err := agrid.New(domain, shape, agrid.Options{M: opts.M, SplitTheta: opts.SplitTheta, MaxDepth: opts.MaxDepth}, pager.New(opts.PageSize))
	if err != nil {
		return nil, err
	}
	ix.g = g
	return ix, nil
}

// Domain returns the indexed domain.
func (ix *OctIndex) Domain() geom3.Box { return ix.g.Domain() }

// CRObjects returns object id's cr-object ids (shared slice).
func (ix *OctIndex) CRObjects(id int32) []int32 { return ix.crOf[id] }

// overlaps is the 3D lift of Algorithm 5 on object id's recorded
// cr-set: the box is certainly disjoint from the cell once a single
// outside region contains all eight corners (outside regions are convex
// in 3D too). Spurious overlaps are possible, missed overlaps are not.
func (ix *OctIndex) overlaps(id int32, b geom3.Box) bool {
	ci, ri := ix.objs[id].Region.C, ix.objs[id].Region.R
	corners := b.Corners()
	for _, j := range ix.crOf[id] {
		oj := ix.objs[j].Region
		s := ri + oj.R
		if ci.Dist(oj.C) <= s {
			continue
		}
		excluded := true
		for _, p := range corners {
			if p.Dist(ci)-p.Dist(oj.C) <= s {
				excluded = false
				break
			}
		}
		if excluded {
			return false
		}
	}
	return true
}

// encodeLeaf encodes one leaf page of <ID, MBS, pointer> tuples.
func (ix *OctIndex) encodeLeaf(ids []int32) []byte {
	tuples := make([]pager.LeafTuple3, len(ids))
	for i, id := range ids {
		o := ix.objs[id]
		tuples[i] = pager.LeafTuple3{
			ID: id,
			CX: o.Region.C.X, CY: o.Region.C.Y, CZ: o.Region.C.Z,
			R: o.Region.R,
		}
	}
	return pager.EncodeLeafTuples3(tuples)
}

// Answer3 is one 3D PNN result.
type Answer3 struct {
	ID   int32
	Prob float64
}

// QueryStats3 instruments a 3D query.
type QueryStats3 struct {
	IndexIOs    int64
	TraverseDur time.Duration
	ProbDur     time.Duration
	LeafEntries int
	Candidates  int
	Depth       int
}

// PNN answers the 3D probabilistic nearest-neighbor query at q: point
// descent to the leaf, dminmax filter, probability integration.
func (ix *OctIndex) PNN(q geom3.Point3) ([]Answer3, QueryStats3, error) {
	var st QueryStats3
	domain := ix.g.Domain()
	if !domain.Contains(q) {
		return nil, st, fmt.Errorf("core3: query point %v outside domain %v", q, domain)
	}

	t0 := time.Now()
	n, region := ix.g.Root(), domain
	for !n.IsLeaf() {
		k := region.OctantFor(q)
		n = n.Kid(k)
		region = region.Octant(k)
		st.Depth++
	}
	var tuples []pager.LeafTuple3
	for _, pid := range n.Pages() {
		ts, err := pager.DecodeLeafTuples3(ix.g.Pager().Read(pid))
		if err != nil {
			return nil, st, fmt.Errorf("core3: leaf page %d: %w", pid, err)
		}
		tuples = append(tuples, ts...)
		st.IndexIOs++
	}
	st.LeafEntries = len(tuples)

	dminmax := math.Inf(1)
	for _, t := range tuples {
		if d := q.Dist(geom3.P3(t.CX, t.CY, t.CZ)) + t.R; d < dminmax {
			dminmax = d
		}
	}
	var cands []uncertain3.Object3
	for _, t := range tuples {
		dmin := q.Dist(geom3.P3(t.CX, t.CY, t.CZ)) - t.R
		if dmin < 0 {
			dmin = 0
		}
		if dmin <= dminmax {
			cands = append(cands, ix.objs[t.ID])
		}
	}
	st.Candidates = len(cands)
	st.TraverseDur = time.Since(t0)

	t1 := time.Now()
	ps := prob3.Probs3(cands, q)
	var answers []Answer3
	for i, p := range ps {
		if p > 0 {
			answers = append(answers, Answer3{ID: cands[i].ID, Prob: p})
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].ID < answers[j].ID })
	st.ProbDur = time.Since(t1)
	return answers, st, nil
}

// IndexStats3 summarize the octree shape.
type IndexStats3 = agrid.Stats

// Stats walks the octree and reports its shape.
func (ix *OctIndex) Stats() IndexStats3 { return ix.g.Stats() }
