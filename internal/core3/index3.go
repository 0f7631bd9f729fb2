package core3

import (
	"fmt"
	"math"
	"sort"
	"time"

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

// onode is one octree node.
type onode struct {
	children   *[8]*onode
	ids        []int32
	pagesAlloc int
	pages      []pager.PageID
}

func (n *onode) isLeaf() bool { return n.children == nil }

// OctIndex is the 3D UV-index: an adaptive octree whose leaves list
// every object whose 3D UV-cell (represented by cr-object ids) overlaps
// the leaf box, decided by the 8-corner test.
type OctIndex struct {
	domain     geom3.Box
	opts       Options3
	pg         *pager.Pager
	objs       []uncertain3.Object3
	crOf       [][]int32
	root       *onode
	nonleaf    int
	capPerPage int
	finished   bool
}

// NewOctIndex prepares an empty octree over the objects.
func NewOctIndex(objs []uncertain3.Object3, domain geom3.Box, opts Options3) *OctIndex {
	opts.normalize()
	return &OctIndex{
		domain:     domain,
		opts:       opts,
		pg:         pager.New(opts.PageSize),
		objs:       objs,
		crOf:       make([][]int32, len(objs)),
		root:       &onode{pagesAlloc: 1},
		capPerPage: pager.TuplesPerPage3(opts.PageSize),
	}
}

// Domain returns the indexed domain.
func (ix *OctIndex) Domain() geom3.Box { return ix.domain }

// Pager exposes the simulated disk for I/O accounting.
func (ix *OctIndex) Pager() *pager.Pager { return ix.pg }

// CRObjects returns object id's cr-object ids (shared slice).
func (ix *OctIndex) CRObjects(id int32) []int32 { return ix.crOf[id] }

// overlapsIDs3 is the 3D lift of Algorithm 5: the box is certainly
// disjoint from Oi's cell once a single outside region contains all
// eight corners (outside regions are convex in 3D too). Spurious
// overlaps are possible, missed overlaps are not.
func (ix *OctIndex) overlapsIDs3(oi uncertain3.Object3, crIDs []int32, b geom3.Box) bool {
	ci, ri := oi.Region.C, oi.Region.R
	corners := b.Corners()
	for _, j := range crIDs {
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

// Insert adds object id, represented by its cr-object ids (Algorithm 3
// with eight children).
func (ix *OctIndex) Insert(id int32, crIDs []int32) {
	if ix.finished {
		panic("core3: Insert after Finish")
	}
	ix.crOf[id] = crIDs
	ix.insertObj(id, ix.objs[id], crIDs, ix.root, ix.domain, 0)
}

func (ix *OctIndex) insertObj(id int32, oi uncertain3.Object3, crIDs []int32, g *onode, region geom3.Box, depth int) {
	if !ix.overlapsIDs3(oi, crIDs, region) {
		return
	}
	if !g.isLeaf() {
		for k := 0; k < 8; k++ {
			ix.insertObj(id, oi, crIDs, g.children[k], region.Octant(k), depth+1)
		}
		return
	}
	state, kids := ix.checkSplit(id, oi, g, region, depth)
	switch state {
	case stateNormal3:
		g.ids = append(g.ids, id)
	case stateOverflow3:
		if len(g.ids) >= g.pagesAlloc*ix.capPerPage {
			g.pagesAlloc++
		}
		g.ids = append(g.ids, id)
	case stateSplit3:
		g.ids = nil
		g.pages = nil
		g.pagesAlloc = 0
		g.children = kids
		ix.nonleaf++
	}
}

type splitState3 int

const (
	stateNormal3 splitState3 = iota
	stateOverflow3
	stateSplit3
)

func (ix *OctIndex) checkSplit(id int32, oi uncertain3.Object3, g *onode, region geom3.Box, depth int) (splitState3, *[8]*onode) {
	if len(g.ids) < g.pagesAlloc*ix.capPerPage {
		return stateNormal3, nil
	}
	if ix.nonleaf+1 > ix.opts.M || depth >= ix.opts.MaxDepth {
		return stateOverflow3, nil
	}
	var kids [8]*onode
	minCount := -1
	for k := 0; k < 8; k++ {
		child := &onode{pagesAlloc: 1}
		sub := region.Octant(k)
		if ix.overlapsIDs3(oi, ix.crOf[id], sub) {
			child.ids = append(child.ids, id)
		}
		for _, j := range g.ids {
			if ix.overlapsIDs3(ix.objs[j], ix.crOf[j], sub) {
				child.ids = append(child.ids, j)
			}
		}
		if need := (len(child.ids) + ix.capPerPage - 1) / ix.capPerPage; need > 1 {
			child.pagesAlloc = need
		}
		kids[k] = child
		if minCount < 0 || len(child.ids) < minCount {
			minCount = len(child.ids)
		}
	}
	theta := float64(minCount) / float64(len(g.ids))
	if theta < ix.opts.SplitTheta {
		return stateSplit3, &kids
	}
	return stateOverflow3, nil
}

// Finish seals the index: leaf lists are serialized into pages.
func (ix *OctIndex) Finish() {
	if ix.finished {
		return
	}
	var walk func(n *onode)
	walk = func(n *onode) {
		if !n.isLeaf() {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		n.pages = ix.writeLeafPages(n.ids)
	}
	walk(ix.root)
	ix.finished = true
}

func (ix *OctIndex) writeLeafPages(ids []int32) []pager.PageID {
	tuples := make([]pager.LeafTuple3, len(ids))
	for i, id := range ids {
		o := ix.objs[id]
		tuples[i] = pager.LeafTuple3{
			ID: id,
			CX: o.Region.C.X, CY: o.Region.C.Y, CZ: o.Region.C.Z,
			R: o.Region.R,
		}
	}
	var pages []pager.PageID
	for off := 0; ; off += ix.capPerPage {
		end := off + ix.capPerPage
		if end > len(tuples) {
			end = len(tuples)
		}
		var chunk []pager.LeafTuple3
		if off < len(tuples) {
			chunk = tuples[off:end]
		}
		pages = append(pages, ix.pg.Alloc(pager.EncodeLeafTuples3(chunk)))
		if end >= len(tuples) {
			break
		}
	}
	return pages
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
	if !ix.finished {
		return nil, st, fmt.Errorf("core3: PNN before Finish")
	}
	if !ix.domain.Contains(q) {
		return nil, st, fmt.Errorf("core3: query point %v outside domain %v", q, ix.domain)
	}

	t0 := time.Now()
	n, region := ix.root, ix.domain
	for !n.isLeaf() {
		k := region.OctantFor(q)
		n = n.children[k]
		region = region.Octant(k)
		st.Depth++
	}
	var tuples []pager.LeafTuple3
	for _, pid := range n.pages {
		ts, err := pager.DecodeLeafTuples3(ix.pg.Read(pid))
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
type IndexStats3 struct {
	NonLeaf    int
	Leaves     int
	Pages      int
	MaxDepth   int
	Entries    int64
	AvgEntries float64
}

// Stats walks the octree and reports its shape.
func (ix *OctIndex) Stats() IndexStats3 {
	var st IndexStats3
	st.NonLeaf = ix.nonleaf
	var walk func(n *onode, depth int)
	walk = func(n *onode, depth int) {
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		if n.isLeaf() {
			st.Leaves++
			st.Pages += len(n.pages)
			st.Entries += int64(len(n.ids))
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(ix.root, 0)
	if st.Leaves > 0 {
		st.AvgEntries = float64(st.Entries) / float64(st.Leaves)
	}
	return st
}
