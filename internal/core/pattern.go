package core

import (
	"fmt"
	"slices"
	"time"

	"uvdiagram/internal/agrid"
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
	ix.g.Leaves(r.Overlaps, func(region geom.Rect, _ int, leaf *agrid.Node) {
		p := Partition{Region: region, Count: len(leaf.IDs())}
		if a := region.Area(); a > 0 {
			p.Density = float64(p.Count) / a
		}
		out = append(out, p)
	})
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
	for _, region := range ix.CellRegions(id) {
		area += region.Area()
	}
	return area, nil
}

// CellRegions returns the leaf regions associated with object id, the
// displayable approximate extent of its UV-cell.
func (ix *UVIndex) CellRegions(id int32) []geom.Rect {
	var out []geom.Rect
	ix.g.Leaves(nil, func(region geom.Rect, _ int, leaf *agrid.Node) {
		if slices.Contains(leaf.IDs(), id) {
			out = append(out, region)
		}
	})
	return out
}

// BuildCellAreas precomputes every object's approximate UV-cell area in
// one tree walk (the offline speed-up of Section V-C).
func (ix *UVIndex) BuildCellAreas() map[int32]float64 {
	areas := make(map[int32]float64, ix.store.Len())
	ix.g.Leaves(nil, func(region geom.Rect, _ int, leaf *agrid.Node) {
		a := region.Area()
		for _, oid := range leaf.IDs() {
			areas[oid] += a
		}
	})
	return areas
}
