// Package rtree implements the disk-based R-tree substrate the paper
// compares against (and uses internally for pruning): a packed R*-style
// tree bulk-loaded with Sort-Tile-Recursive [38], with dynamic inserts,
// rectangle and circular-center range search, best-first k-nearest-
// neighbor search by minimum distance, and the branch-and-prune PNN
// retrieval strategy of [14].
//
// Following the paper's setup, non-leaf nodes live in main memory while
// every leaf node occupies one simulated disk page (4 KB, fanout 100),
// so leaf visits are the unit of query I/O. The one exception is the
// possible-k-NN retrieval (KNNCandidates), which reads leaves through a
// small memo of decoded leaves the tree owns (see leafMemo); the paper's
// PNN baseline (PNNCandidates) and every other traversal read pages.
package rtree

import (
	"fmt"
	"sync/atomic"

	"uvdiagram/internal/epoch"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// DefaultFanout is the paper's R-tree fanout.
const DefaultFanout = 100

// Item is an indexed uncertain object: its minimum bounding circle and
// the disk address of its full record.
type Item struct {
	ID  int32
	MBC geom.Circle
	Ptr uint64
}

// Rect returns the item's MBR: the bounding rectangle of its MBC.
func (it Item) Rect() geom.Rect { return it.MBC.BoundingRect() }

// tuple conversion helpers.
func toTuple(it Item) pager.LeafTuple {
	return pager.LeafTuple{ID: it.ID, CX: it.MBC.C.X, CY: it.MBC.C.Y, R: it.MBC.R, Pointer: it.Ptr}
}

func fromTuple(t pager.LeafTuple) Item {
	return Item{ID: t.ID, MBC: geom.Circle{C: geom.Pt(t.CX, t.CY), R: t.R}, Ptr: t.Pointer}
}

// node is an R-tree node. Non-leaf nodes keep children in memory; a
// leaf holds only its page id — entries are read through the pager.
type node struct {
	rect     geom.Rect
	children []*node      // non-leaf only
	page     pager.PageID // leaf only
	count    int          // leaf entry count
}

func (n *node) isLeaf() bool { return n.children == nil }

// treeHdr is one immutable tree snapshot: mutations path-copy the
// nodes they change, write fresh leaf pages, and publish a new header
// with a single pointer store — readers traversing an old header keep
// a consistent tree whose pages are retired only once every pinned
// reader epoch has advanced (see SetReclaimDomain).
type treeHdr struct {
	root   *node
	height int // 1 = root is a leaf
	size   int
}

// Tree is a disk-simulated R-tree over Items. Reads are lock-free and
// may run concurrently with one mutator; mutations themselves must be
// externally serialized (the DB's store mutex does this).
type Tree struct {
	fanout int
	pg     *pager.Pager
	hdr    atomic.Pointer[treeHdr]
	// dom, when set, reclaims the page slots a mutation replaced once
	// no pinned reader can still reach them. Nil orphans retired pages
	// (the standalone-tree behavior before reclamation existed).
	dom *epoch.Domain
	// gen counts mutations; derived structures snapshot it to detect
	// that the tree has changed under them.
	gen atomic.Uint64
	// memo is the tree-owned, always-on memo of decoded leaves behind
	// KNNCandidates (see leafMemo): bounded at leafMemoCap leaves,
	// keyed by immutable COW node, so no mutation has to flush it.
	memo *leafMemo
}

// New returns an empty tree with the given fanout (DefaultFanout when
// fanout ≤ 1) backed by pg.
func New(fanout int, pg *pager.Pager) *Tree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	if 2+fanout*pager.LeafTupleSize > pg.PageSize() {
		panic(fmt.Sprintf("rtree: fanout %d does not fit page size %d", fanout, pg.PageSize()))
	}
	t := &Tree{fanout: fanout, pg: pg, memo: newLeafMemo(leafMemoCap)}
	t.hdr.Store(&treeHdr{root: t.newLeaf(nil), height: 1})
	return t
}

// SetReclaimDomain attaches the epoch domain used to reclaim the page
// slots replaced by COW mutations. Without one, retired pages are
// orphaned on the simulated disk.
func (t *Tree) SetReclaimDomain(d *epoch.Domain) { t.dom = d }

// retirePages schedules replaced page slots for reuse once every
// reader pinned before the mutation published has finished.
func (t *Tree) retirePages(ids []pager.PageID) {
	if len(ids) == 0 || t.dom == nil {
		return
	}
	pg := t.pg
	t.dom.Retire(func() { pg.Free(ids) })
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.hdr.Load().size }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.hdr.Load().height }

// Bounds returns the MBR of the whole tree.
func (t *Tree) Bounds() geom.Rect { return t.hdr.Load().root.rect }

// Pager exposes the underlying pager for I/O accounting.
func (t *Tree) Pager() *pager.Pager { return t.pg }

// NonLeafCount returns the number of in-memory (non-leaf) nodes; the
// paper keeps these in RAM for both competing indexes.
func (t *Tree) NonLeafCount() int {
	var walk func(*node) int
	walk = func(n *node) int {
		if n.isLeaf() {
			return 0
		}
		c := 1
		for _, ch := range n.children {
			c += walk(ch)
		}
		return c
	}
	return walk(t.hdr.Load().root)
}

// LeafCount returns the number of leaf pages.
func (t *Tree) LeafCount() int {
	var walk func(*node) int
	walk = func(n *node) int {
		if n.isLeaf() {
			return 1
		}
		c := 0
		for _, ch := range n.children {
			c += walk(ch)
		}
		return c
	}
	return walk(t.hdr.Load().root)
}

// newLeaf allocates a leaf node holding the given items on a fresh page.
func (t *Tree) newLeaf(items []Item) *node {
	ts := make([]pager.LeafTuple, len(items))
	r := geom.Rect{}
	for i, it := range items {
		ts[i] = toTuple(it)
		if i == 0 {
			r = it.Rect()
		} else {
			r = r.Union(it.Rect())
		}
	}
	id := t.pg.Alloc(pager.EncodeLeafTuples(ts))
	return &node{rect: r, page: id, count: len(items)}
}

// leafPage reads a leaf's page (one page read) and returns it with its
// tuple count, for decoding in place with pager.LeafTupleAt.
func (t *Tree) leafPage(n *node) ([]byte, int) {
	page := t.pg.Read(n.page)
	cnt, err := pager.LeafTupleCount(page)
	if err != nil {
		// Pages are written only by this package; a decode failure is a
		// programming error, not an input error.
		panic("rtree: corrupt leaf page: " + err.Error())
	}
	return page, cnt
}

// visitLeaf decodes a leaf's items in place (one page read, no
// allocation) and hands them to visit in page order — the read path of
// the traversals that look at each item once.
func (t *Tree) visitLeaf(n *node, visit func(Item)) {
	page, cnt := t.leafPage(n)
	for i := 0; i < cnt; i++ {
		visit(fromTuple(pager.LeafTupleAt(page, i)))
	}
}

// readLeaf is visitLeaf collected into a slice the caller may keep.
func (t *Tree) readLeaf(n *node) []Item {
	items := make([]Item, 0, n.count)
	t.visitLeaf(n, func(it Item) { items = append(items, it) })
	return items
}
