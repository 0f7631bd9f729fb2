package rtree

import (
	"fmt"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/wire"
)

// Page-image snapshots, mirroring the UV-index's scheme (see
// internal/core/snapshot.go): the manifest records the in-memory node
// structure (rects, leaf entry counts), the caller persists the leaf
// page images verbatim in manifest walk order, and OpenSnapshot points
// a fresh tree at a pager already holding them — page ids are implicit
// sequential positions, no leaf is re-encoded.

func putRect(w *wire.Buffer, r geom.Rect) {
	w.F64(r.Min.X)
	w.F64(r.Min.Y)
	w.F64(r.Max.X)
	w.F64(r.Max.Y)
}

func readRect(r *wire.Reader) geom.Rect {
	return geom.Rect{Min: geom.Pt(r.F64(), r.F64()), Max: geom.Pt(r.F64(), r.F64())}
}

// SnapshotManifest serializes the tree's node structure and returns the
// leaf page ids in manifest walk order, for the caller to copy the page
// images into the snapshot file.
func (t *Tree) SnapshotManifest() ([]byte, []pager.PageID) {
	hdr := t.hdr.Load()
	var w wire.Buffer
	w.U32(uint32(t.fanout))
	w.U32(uint32(hdr.height))
	w.U32(uint32(hdr.size))
	var pages []pager.PageID
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			w.U32(0)
			putRect(&w, n.rect)
			w.U32(uint32(n.count))
			pages = append(pages, n.page)
			return
		}
		w.U32(1)
		putRect(&w, n.rect)
		w.U32(uint32(len(n.children)))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(hdr.root)
	return w.Bytes(), pages
}

// OpenSnapshot reconstructs a tree from a manifest written by
// SnapshotManifest and a pager already holding the leaf page images in
// manifest order (ids 0..NumPages-1). No pages are written.
func OpenSnapshot(manifest []byte, pg *pager.Pager) (*Tree, error) {
	r := wire.NewReader(manifest)
	fanout := int(r.U32())
	height := int(r.U32())
	size := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rtree: snapshot header: %w", err)
	}
	if fanout <= 1 || 2+fanout*pager.LeafTupleSize > pg.PageSize() {
		return nil, fmt.Errorf("rtree: snapshot fanout %d does not fit page size %d", fanout, pg.PageSize())
	}
	if height < 1 || size < 0 {
		return nil, fmt.Errorf("rtree: snapshot height %d size %d", height, size)
	}
	total := pg.NumPages()
	next := 0 // next unclaimed sequential page id
	var nodes int
	var walk func() (*node, error)
	walk = func() (*node, error) {
		if nodes++; nodes > 1<<24 {
			return nil, fmt.Errorf("node count exceeds sanity bound")
		}
		tag := r.U32()
		n := &node{rect: readRect(r)}
		count := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch tag {
		case 0:
			if count < 0 || count > fanout {
				return nil, fmt.Errorf("leaf entry count %d exceeds fanout %d", count, fanout)
			}
			if next >= total {
				return nil, fmt.Errorf("leaf claims page %d of %d", next, total)
			}
			n.count = count
			n.page = pager.PageID(next)
			next++
		case 1:
			if count < 1 || count > fanout {
				return nil, fmt.Errorf("non-leaf with %d children (fanout %d)", count, fanout)
			}
			n.children = make([]*node, count)
			for k := range n.children {
				var err error
				if n.children[k], err = walk(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("bad node tag")
		}
		return n, nil
	}
	root, err := walk()
	if err != nil {
		return nil, fmt.Errorf("rtree: snapshot tree: %w", err)
	}
	if next != total {
		return nil, fmt.Errorf("rtree: snapshot tree claims %d pages, section holds %d", next, total)
	}
	t := &Tree{fanout: fanout, pg: pg, memo: newLeafMemo(leafMemoCap)}
	t.hdr.Store(&treeHdr{root: root, height: height, size: size})
	return t, nil
}
