package core3

import (
	"fmt"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
	"uvdiagram/internal/wire"
)

// Octree persistence mirrors the 2D index serializer: header, per-object
// cr-id lists, then the shared grid's preorder tree walk (non-leaf nodes
// have exactly eight children). Leaf pages are re-materialized on load.

const (
	octMagic   = 0x55564f43 // "UVOC"
	octVersion = 1
)

// Save appends the octree structure to w.
func (ix *OctIndex) Save(w *wire.Buffer) {
	w.U32(octMagic)
	w.U32(octVersion)
	domain := ix.Domain()
	for _, v := range []float64{
		domain.Min.X, domain.Min.Y, domain.Min.Z,
		domain.Max.X, domain.Max.Y, domain.Max.Z,
	} {
		w.F64(v)
	}
	w.U32(uint32(ix.opts.M))
	w.F64(ix.opts.SplitTheta)
	w.U32(uint32(ix.opts.PageSize))
	w.U32(uint32(ix.opts.MaxDepth))
	w.U32(uint32(ix.opts.Dirs))
	w.U32(uint32(len(ix.crOf)))
	for _, cr := range ix.crOf {
		agrid.PutIDs(w, cr)
	}
	ix.g.PutTree(w, nil)
}

// LoadOctIndex re-opens an octree written by Save, read from r's
// cursor, against the same object slice; leaf pages are
// re-materialized.
func LoadOctIndex(r *wire.Reader, objs []uncertain3.Object3) (*OctIndex, error) {
	if r.U32() != octMagic {
		return nil, fmt.Errorf("core3: not an octree stream")
	}
	if v := r.U32(); v != octVersion {
		return nil, fmt.Errorf("core3: unsupported octree version %d", v)
	}
	domain := geom3.Box{
		Min: geom3.P3(r.F64(), r.F64(), r.F64()),
		Max: geom3.P3(r.F64(), r.F64(), r.F64()),
	}
	opts := Options3{
		M:          int(r.U32()),
		SplitTheta: r.F64(),
		PageSize:   int(r.U32()),
		MaxDepth:   int(r.U32()),
		Dirs:       int(r.U32()),
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core3: loading octree header: %w", err)
	}
	if n != len(objs) {
		return nil, fmt.Errorf("core3: octree stores %d objects, have %d", n, len(objs))
	}
	ix, err := newOctIndex(objs, domain, opts)
	if err != nil {
		return nil, err
	}
	for i := range ix.crOf {
		if ix.crOf[i], err = agrid.ReadIDs(r, n); err != nil {
			return nil, fmt.Errorf("core3: loading octree registry: %w", err)
		}
	}
	if err := ix.g.Load(r, n, nil); err != nil {
		return nil, fmt.Errorf("core3: loading octree: %w", err)
	}
	return ix, nil
}
