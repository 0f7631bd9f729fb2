package core

import (
	"encoding/binary"
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
	var dead []bool
	if orderK == 1 {
		dead = store.View().Tombstones()
	}
	crSets, err := DecodeCRSets(r, n, dead)
	if err != nil {
		return nil, fmt.Errorf("core: loading index registry: %w", err)
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

// DecodeCRSets reads the constraint registry of n objects as Save and
// a snapshot's metadata write it — per object a u32 count followed by
// that many u32 ids — and checks every id lies below n. Each set's
// bytes are taken in one read, and the sets are windows of one exactly
// sized array with cap == len (see CRState), so decoding makes two
// allocations whatever n is.
//
// A non-nil dead (the n tombstones) also checks the invariants every
// order-1 registry keeps through Build and every mutation: a tombstoned
// object's set is empty, and a live object's set is strictly ascending
// and names neither the object itself nor a tombstoned one. Order-k
// sets are kept in derivation order, so their loader passes nil.
func DecodeCRSets(r *wire.Reader, n int, dead []bool) ([][]int32, error) {
	if dead != nil && len(dead) != n {
		return nil, fmt.Errorf("%d tombstones for %d objects", len(dead), n)
	}
	// Pass 1, on a copy of the cursor: validate the counts and size the
	// backing array.
	scan := *r
	total := 0
	for i := 0; i < n; i++ {
		k := int(scan.U32())
		if k < 0 || k > n || k > scan.Remaining()/4 {
			return nil, fmt.Errorf("object %d cr-set of %d exceeds object count %d", i, k, n)
		}
		scan.Take(4 * k)
		total += k
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	// Pass 2: carve, fill and check.
	back := make([]int32, total)
	sets := make([][]int32, n)
	o := 0
	for i := range sets {
		k := int(r.U32())
		b := r.Take(4 * k)
		ids := back[o : o+k : o+k]
		o += k
		if k == 0 {
			continue
		}
		if dead != nil && dead[i] {
			return nil, fmt.Errorf("tombstoned object %d has a cr-set of %d", i, k)
		}
		prev := -1
		for j := range ids {
			u := binary.LittleEndian.Uint32(b[4*j:])
			v := int(u)
			switch {
			case u >= uint32(n):
				return nil, fmt.Errorf("object %d cr-id %d out of range", i, u)
			case dead == nil:
			case v <= prev:
				return nil, fmt.Errorf("object %d cr-set is not strictly ascending at %d", i, v)
			case v == i:
				return nil, fmt.Errorf("object %d cr-set names the object itself", i)
			case dead[v]:
				return nil, fmt.Errorf("object %d cr-set names tombstoned object %d", i, v)
			}
			prev = v
			ids[j] = int32(v)
		}
		sets[i] = ids
	}
	return sets, r.Err()
}
