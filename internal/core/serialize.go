package core

import (
	"fmt"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Index persistence: a built UV-index can be written out and reopened
// against the same object store without re-running construction (the
// expensive phase). The format stores the quad-tree shape, the leaf
// object lists and each object's cr-object ids; the loader writes the
// leaf pages through the grid's write pass, as a build does.

const (
	indexMagic = 0x55564958 // "UVIX"
	// indexVersion 2 added the cell order (orderK) to the header;
	// version-1 streams are still readable and imply order 1.
	indexVersion = 2
)

// putHeader appends the fields Save and SnapshotManifest share: domain,
// index options, cell order and object count.
func (ix *UVIndex) putHeader(w *wire.Buffer, n int) {
	domain := ix.Domain()
	w.F64(domain.Min.X)
	w.F64(domain.Min.Y)
	w.F64(domain.Max.X)
	w.F64(domain.Max.Y)
	w.U32(uint32(ix.opts.M))
	w.F64(ix.opts.SplitTheta)
	w.U32(uint32(ix.opts.PageSize))
	w.U32(uint32(ix.opts.MaxDepth))
	w.U32(uint32(ix.orderK))
	w.U32(uint32(n))
}

// Save appends the index structure to w.
func (ix *UVIndex) Save(w *wire.Buffer) {
	w.U32(indexMagic)
	w.U32(indexVersion)
	ix.putHeader(w, len(ix.cr.crOf))
	for _, cr := range ix.cr.crOf {
		agrid.PutIDs(w, cr)
	}
	ix.g.PutTree(w, nil)
}

// readHeader reads the fields putHeader wrote; a version-1 Save stream
// predates the cell order and implies order 1.
func readHeader(r *wire.Reader, hasOrder bool) (domain geom.Rect, opts IndexOptions, orderK, n int) {
	domain = geom.Rect{
		Min: geom.Pt(r.F64(), r.F64()),
		Max: geom.Pt(r.F64(), r.F64()),
	}
	opts = IndexOptions{
		M:          int(r.U32()),
		SplitTheta: r.F64(),
		PageSize:   int(r.U32()),
		MaxDepth:   int(r.U32()),
	}
	orderK = 1
	if hasOrder {
		orderK = int(r.U32())
	}
	return domain, opts, orderK, int(r.U32())
}

// LoadUVIndex reads an index written by Save from r's cursor and
// reattaches it to the store it was built over (the store provides MBCs
// and page pointers for the leaf pages). The decoded leaves go through
// one write pass, whose seal writes their pages.
func LoadUVIndex(r *wire.Reader, store *uncertain.Store) (*UVIndex, error) {
	if r.U32() != indexMagic {
		return nil, fmt.Errorf("core: not a UV-index stream")
	}
	v := r.U32()
	if v != 1 && v != indexVersion {
		return nil, fmt.Errorf("core: unsupported UV-index version %d", v)
	}
	domain, opts, orderK, n := readHeader(r, v >= 2)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: loading index header: %w", err)
	}
	if orderK < 1 {
		return nil, fmt.Errorf("core: invalid cell order %d", orderK)
	}
	if n != store.Len() {
		return nil, fmt.Errorf("core: index stores %d objects, store has %d", n, store.Len())
	}
	crSets := make([][]int32, n)
	for i := range crSets {
		ids, err := agrid.ReadIDs(r, n)
		if err != nil {
			return nil, fmt.Errorf("core: loading index registry: %w", err)
		}
		crSets[i] = ids
	}
	// NewCRState rebuilds the reverse cr-map (the delete path's dependency
	// index); it is derived state, so the stream does not carry it.
	ix, err := newIndex(store, domain, opts, NewCRState(crSets), orderK, nil)
	if err != nil {
		return nil, err
	}
	if err := ix.g.Load(r, n, nil); err != nil {
		return nil, fmt.Errorf("core: loading index tree: %w", err)
	}
	return ix, nil
}
