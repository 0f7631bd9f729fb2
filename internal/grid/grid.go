// Package grid implements the uniform-grid index over uncertain objects
// that the paper's introduction cites as the other pre-existing PNN
// access method ([16]). Each grid cell stores, on simulated disk pages,
// the tuples of every object whose uncertainty region overlaps the
// cell; PNN retrieval expands rings of cells around the query point
// until the dminmax bound of [14] stops the search.
package grid

import (
	"fmt"
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/uncertain"
)

// Index is a uniform grid over a square domain.
type Index struct {
	domain   geom.Rect
	n        int // cells per side
	cellW    float64
	cellH    float64
	ids      [][]int32        // per-cell object ids (construction view)
	pages    [][]pager.PageID // per-cell serialized tuples
	pg       *pager.Pager
	capPer   int
	numItems int
}

// Build constructs the grid with n×n cells over domain.
func Build(objs []uncertain.Object, domain geom.Rect, n int, pg *pager.Pager) (*Index, error) {
	if n <= 0 {
		return nil, fmt.Errorf("grid: need a positive cell count, got %d", n)
	}
	g := &Index{
		domain: domain,
		n:      n,
		cellW:  domain.W() / float64(n),
		cellH:  domain.H() / float64(n),
		ids:    make([][]int32, n*n),
		pages:  make([][]pager.PageID, n*n),
		pg:     pg,
		capPer: pager.TuplesPerPage(pg.PageSize()),
	}
	for _, o := range objs {
		if !domain.Contains(o.Region.C) {
			return nil, fmt.Errorf("grid: object %d center outside domain", o.ID)
		}
		// Insert into every cell the uncertainty region overlaps.
		br := o.Region.BoundingRect()
		x0, y0 := g.cellOf(geom.Pt(br.Min.X, br.Min.Y))
		x1, y1 := g.cellOf(geom.Pt(br.Max.X, br.Max.Y))
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				if o.Region.OverlapsRect(g.cellRect(cx, cy)) {
					idx := cy*g.n + cx
					g.ids[idx] = append(g.ids[idx], o.ID)
				}
			}
		}
		g.numItems++
	}
	// Serialize cell lists to pages.
	for idx, list := range g.ids {
		g.pages[idx] = g.writeCell(objs, list)
	}
	return g, nil
}

// Len returns the number of indexed objects.
func (g *Index) Len() int { return g.numItems }

// Pager exposes the underlying pager for I/O accounting.
func (g *Index) Pager() *pager.Pager { return g.pg }

func (g *Index) writeCell(objs []uncertain.Object, list []int32) []pager.PageID {
	tuples := make([]pager.LeafTuple, len(list))
	for i, id := range list {
		o := objs[id]
		tuples[i] = pager.LeafTuple{ID: id, CX: o.Region.C.X, CY: o.Region.C.Y, R: o.Region.R}
	}
	var pages []pager.PageID
	for off := 0; ; off += g.capPer {
		end := off + g.capPer
		if end > len(tuples) {
			end = len(tuples)
		}
		var chunk []pager.LeafTuple
		if off < len(tuples) {
			chunk = tuples[off:end]
		}
		pages = append(pages, g.pg.Alloc(pager.EncodeLeafTuples(chunk)))
		if end >= len(tuples) {
			break
		}
	}
	return pages
}

func (g *Index) cellOf(p geom.Point) (int, int) {
	cx := int((p.X - g.domain.Min.X) / g.cellW)
	cy := int((p.Y - g.domain.Min.Y) / g.cellH)
	return clampInt(cx, 0, g.n-1), clampInt(cy, 0, g.n-1)
}

func (g *Index) cellRect(cx, cy int) geom.Rect {
	return geom.Rect{
		Min: geom.Pt(g.domain.Min.X+float64(cx)*g.cellW, g.domain.Min.Y+float64(cy)*g.cellH),
		Max: geom.Pt(g.domain.Min.X+float64(cx+1)*g.cellW, g.domain.Min.Y+float64(cy+1)*g.cellH),
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// readCell decodes one cell's tuples (one read per page).
func (g *Index) readCell(idx int) []pager.LeafTuple {
	var out []pager.LeafTuple
	for _, pid := range g.pages[idx] {
		var err error
		if out, err = pager.AppendLeafTuples(out, g.pg.Read(pid)); err != nil {
			panic("grid: corrupt cell page: " + err.Error())
		}
	}
	return out
}

// PNNCandidates retrieves the PNN candidate set at q by expanding rings
// of cells: the first pass establishes dminmax, the second collects all
// objects with distmin ≤ dminmax (deduplicated — an object spans
// several cells).
func (g *Index) PNNCandidates(q geom.Point) ([]int32, float64) {
	if g.numItems == 0 {
		return nil, math.Inf(1)
	}
	qx, qy := g.cellOf(q)
	dminmax := math.Inf(1)
	minCell := math.Min(g.cellW, g.cellH)
	// Phase 1: expand rings until they cannot improve dminmax.
	for ring := 0; ring < g.n; ring++ {
		if float64(ring-1)*minCell > dminmax {
			break
		}
		for _, idx := range g.ringCells(qx, qy, ring) {
			for _, t := range g.readCell(idx) {
				if d := q.Dist(geom.Pt(t.CX, t.CY)) + t.R; d < dminmax {
					dminmax = d
				}
			}
		}
		if math.IsInf(dminmax, 1) {
			continue
		}
	}
	// Phase 2: visit every cell within dminmax and collect survivors.
	seen := map[int32]bool{}
	var out []int32
	x0, y0 := g.cellOf(geom.Pt(q.X-dminmax, q.Y-dminmax))
	x1, y1 := g.cellOf(geom.Pt(q.X+dminmax, q.Y+dminmax))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			if g.cellRect(cx, cy).MinDist(q) > dminmax {
				continue
			}
			for _, t := range g.readCell(cy*g.n + cx) {
				if seen[t.ID] {
					continue
				}
				dmin := q.Dist(geom.Pt(t.CX, t.CY)) - t.R
				if dmin < 0 {
					dmin = 0
				}
				if dmin <= dminmax {
					seen[t.ID] = true
					out = append(out, t.ID)
				}
			}
		}
	}
	return out, dminmax
}

// ringCells lists the cell indexes at Chebyshev distance ring from
// (qx, qy), clipped to the grid.
func (g *Index) ringCells(qx, qy, ring int) []int {
	var out []int
	if ring == 0 {
		return []int{qy*g.n + qx}
	}
	x0, x1 := qx-ring, qx+ring
	y0, y1 := qy-ring, qy+ring
	for cx := x0; cx <= x1; cx++ {
		for _, cy := range []int{y0, y1} {
			if cx >= 0 && cx < g.n && cy >= 0 && cy < g.n {
				out = append(out, cy*g.n+cx)
			}
		}
	}
	for cy := y0 + 1; cy <= y1-1; cy++ {
		for _, cx := range []int{x0, x1} {
			if cx >= 0 && cx < g.n && cy >= 0 && cy < g.n {
				out = append(out, cy*g.n+cx)
			}
		}
	}
	return out
}
