package core3

import (
	"fmt"

	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
	"uvdiagram/internal/wire"
)

// Octree persistence mirrors the 2D index serializer: header, per-object
// cr-id lists, then a preorder walk with a leaf/non-leaf tag per node
// (non-leaf nodes have exactly eight children). Leaf pages are
// re-materialized on load.

const (
	octMagic   = 0x55564f43 // "UVOC"
	octVersion = 1
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
		return nil, fmt.Errorf("id list of %d exceeds bound %d", n, max)
	}
	out := make([]int32, n)
	for i := range out {
		v := r.U32()
		if int(v) >= max {
			return nil, fmt.Errorf("id %d out of range", v)
		}
		out[i] = int32(v)
	}
	return out, r.Err()
}

// Save appends the finished octree structure to w.
func (ix *OctIndex) Save(w *wire.Buffer) error {
	if !ix.finished {
		return fmt.Errorf("core3: Save before Finish")
	}
	w.U32(octMagic)
	w.U32(octVersion)
	for _, v := range []float64{
		ix.domain.Min.X, ix.domain.Min.Y, ix.domain.Min.Z,
		ix.domain.Max.X, ix.domain.Max.Y, ix.domain.Max.Z,
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
		putIDs(w, cr)
	}
	var walk func(n *onode)
	walk = func(n *onode) {
		if n.isLeaf() {
			w.U32(0)
			putIDs(w, n.ids)
			return
		}
		w.U32(1)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.root)
	return nil
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
	ix := NewOctIndex(objs, domain, opts)
	for i := 0; i < n; i++ {
		ids, err := readIDs(r, n)
		if err != nil {
			return nil, fmt.Errorf("core3: loading octree registry: %w", err)
		}
		ix.crOf[i] = ids
	}
	var nodes int
	var walk func() (*onode, error)
	walk = func() (*onode, error) {
		if nodes++; nodes > 1<<24 {
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
			leaf := &onode{ids: ids, pagesAlloc: 1}
			if need := (len(ids) + ix.capPerPage - 1) / ix.capPerPage; need > 1 {
				leaf.pagesAlloc = need
			}
			return leaf, nil
		case tag == 1:
			var kids [8]*onode
			for k := range kids {
				var err error
				if kids[k], err = walk(); err != nil {
					return nil, err
				}
			}
			ix.nonleaf++
			return &onode{children: &kids}, nil
		default:
			return nil, fmt.Errorf("bad node tag")
		}
	}
	root, err := walk()
	if err != nil {
		return nil, fmt.Errorf("core3: loading octree: %w", err)
	}
	ix.root = root
	ix.Finish()
	return ix, nil
}
