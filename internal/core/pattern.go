package core

import (
	"fmt"
	"time"

	"uvdiagram/internal/geom"
)

// Pattern-analysis queries of Section V-C.

// Partition describes one leaf region returned by a UV-partition query:
// its extent, the number of objects that can be a nearest neighbor
// inside it, and the density (count divided by area).
type Partition struct {
	Region  geom.Rect
	Count   int
	Density float64
}

// Partitions retrieves all leaf regions intersecting r together with
// their nearest-neighbor densities (UV-partition retrieval). Counts are
// served from the per-leaf counters kept offline, as the paper
// prescribes, so the query does no page I/O.
func (ix *UVIndex) Partitions(r geom.Rect) ([]Partition, time.Duration) {
	t0 := time.Now()
	var out []Partition
	var walk func(n *qnode, region geom.Rect)
	walk = func(n *qnode, region geom.Rect) {
		if !region.Overlaps(r) {
			return
		}
		if n.isLeaf() {
			p := Partition{Region: region, Count: len(n.ids)}
			if a := region.Area(); a > 0 {
				p.Density = float64(p.Count) / a
			}
			out = append(out, p)
			return
		}
		for k := 0; k < 4; k++ {
			walk(n.children[k], region.Quadrant(k))
		}
	}
	walk(ix.ts.Load().root, ix.domain)
	return out, time.Since(t0)
}

// CellArea approximates the area of object id's UV-cell as the total
// area of the leaf regions whose lists contain the object (UV-cell
// retrieval). It scans the tree; use BuildCellAreas for the offline
// precomputation the paper recommends.
func (ix *UVIndex) CellArea(id int32) (float64, error) {
	if id < 0 || int(id) >= ix.store.Len() {
		return 0, fmt.Errorf("core: unknown object %d", id)
	}
	if !ix.store.Alive(id) {
		return 0, fmt.Errorf("core: object %d is deleted", id)
	}
	area := 0.0
	var walk func(n *qnode, region geom.Rect)
	walk = func(n *qnode, region geom.Rect) {
		if n.isLeaf() {
			for _, oid := range n.ids {
				if oid == id {
					area += region.Area()
					return
				}
			}
			return
		}
		for k := 0; k < 4; k++ {
			walk(n.children[k], region.Quadrant(k))
		}
	}
	walk(ix.ts.Load().root, ix.domain)
	return area, nil
}

// CellRegions returns the leaf regions associated with object id, the
// displayable approximate extent of its UV-cell.
func (ix *UVIndex) CellRegions(id int32) []geom.Rect {
	var out []geom.Rect
	var walk func(n *qnode, region geom.Rect)
	walk = func(n *qnode, region geom.Rect) {
		if n.isLeaf() {
			for _, oid := range n.ids {
				if oid == id {
					out = append(out, region)
					return
				}
			}
			return
		}
		for k := 0; k < 4; k++ {
			walk(n.children[k], region.Quadrant(k))
		}
	}
	walk(ix.ts.Load().root, ix.domain)
	return out
}

// BuildCellAreas precomputes every object's approximate UV-cell area in
// one tree walk (the offline speed-up of Section V-C).
func (ix *UVIndex) BuildCellAreas() map[int32]float64 {
	areas := make(map[int32]float64, ix.store.Len())
	var walk func(n *qnode, region geom.Rect)
	walk = func(n *qnode, region geom.Rect) {
		if n.isLeaf() {
			a := region.Area()
			for _, oid := range n.ids {
				areas[oid] += a
			}
			return
		}
		for k := 0; k < 4; k++ {
			walk(n.children[k], region.Quadrant(k))
		}
	}
	walk(ix.ts.Load().root, ix.domain)
	return areas
}
