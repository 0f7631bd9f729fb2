package core

import (
	"fmt"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
	"uvdiagram/internal/wire"
)

// Index persistence: a built UV-index can be written out and reopened
// against the same object store without re-running construction (the
// expensive phase). The format stores the quad-tree shape, the leaf
// object lists and each object's cr-object ids; the loader writes the
// leaf pages through the write pass's seal, as a build does.

const (
	indexMagic = 0x55564958 // "UVIX"
	// indexVersion 2 added the cell order (orderK) to the header;
	// version-1 streams are still readable and imply order 1.
	indexVersion = 2
)

// putIDs appends a count-prefixed id list.
func putIDs(w *wire.Buffer, ids []int32) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.I32(id)
	}
}

// readIDs reads a count-prefixed id list whose ids must all lie below
// max (the object count).
func readIDs(r *wire.Reader, max int) ([]int32, error) {
	n := int(r.U32())
	if n < 0 || n > max {
		return nil, fmt.Errorf("id list of %d exceeds object count %d", n, max)
	}
	out := make([]int32, n)
	for i := range out {
		v := r.U32()
		if int(v) >= max {
			return nil, fmt.Errorf("object id %d out of range", v)
		}
		out[i] = int32(v)
	}
	return out, r.Err()
}

// putHeader appends the fields Save and SnapshotManifest share: domain,
// index options, cell order and object count.
func (ix *UVIndex) putHeader(w *wire.Buffer, n int) {
	w.F64(ix.domain.Min.X)
	w.F64(ix.domain.Min.Y)
	w.F64(ix.domain.Max.X)
	w.F64(ix.domain.Max.Y)
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
		putIDs(w, cr)
	}
	putTree(w, ix.ts.Load().root, nil)
}

// putTree appends a preorder walk of the tree under n: tag 0, the id
// list and whatever leaf appends for a leaf; tag 1 and the four
// children for a non-leaf.
func putTree(w *wire.Buffer, n *qnode, leaf func(*qnode)) {
	if !n.isLeaf() {
		w.U32(1)
		for _, c := range n.children {
			putTree(w, c, leaf)
		}
		return
	}
	w.U32(0)
	putIDs(w, n.ids)
	if leaf != nil {
		leaf(n)
	}
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

// maxTreeNodes bounds the node count of a decoded tree against corrupt
// streams.
const maxTreeNodes = 1 << 24

// readTree decodes the walk putTree wrote: the leaf callback builds each
// leaf from its id list (reading from r whatever its writer appended).
// A non-leaf is fresh when a child is, so seal reaches fresh leaves. It
// returns the root and the non-leaf count.
func readTree(r *wire.Reader, n int, leaf func(ids []int32) (*qnode, error)) (*qnode, int, error) {
	var nodes, nonleaf int
	var walk func() (*qnode, error)
	walk = func() (*qnode, error) {
		if nodes++; nodes > maxTreeNodes {
			return nil, fmt.Errorf("node count exceeds sanity bound")
		}
		switch tag := r.U32(); {
		case r.Err() != nil:
			return nil, r.Err()
		case tag == 0:
			ids, err := readIDs(r, n)
			if err != nil {
				return nil, err
			}
			return leaf(ids)
		case tag == 1:
			node := &qnode{children: new([4]*qnode)}
			for k := range node.children {
				c, err := walk()
				if err != nil {
					return nil, err
				}
				node.children[k] = c
				node.fresh = node.fresh || c.fresh
			}
			nonleaf++
			return node, nil
		default:
			return nil, fmt.Errorf("bad node tag")
		}
	}
	root, err := walk()
	return root, nonleaf, err
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
		ids, err := readIDs(r, n)
		if err != nil {
			return nil, fmt.Errorf("core: loading index registry: %w", err)
		}
		crSets[i] = ids
	}
	// NewCRState rebuilds the reverse cr-map (the delete path's dependency
	// index); it is derived state, so the stream does not carry it.
	ix := newIndex(store, domain, opts, NewCRState(crSets), orderK, nil)
	p := &cowPass{ix: ix}
	root, nonleaf, err := readTree(r, n, func(ids []int32) (*qnode, error) { return p.leaf(ids), nil })
	if err != nil {
		return nil, fmt.Errorf("core: loading index tree: %w", err)
	}
	p.nonleaf = nonleaf
	p.install(root)
	return ix, nil
}
