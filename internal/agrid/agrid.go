// Package agrid is the adaptive grid of the paper's Section V, written
// once for every dimension: the node type, the copy-on-write write pass
// of Algorithms 3–4 (InsertObj, CheckSplit), leaf-page chunking, the
// shape statistics and the preorder tree codec. An index supplies only
// what depends on its geometry, through Shape: how a cell splits, the
// overlap test of Algorithm 5 and the leaf-tuple encoding. The 2-D
// UV-index runs it over rectangles with four quadrants, the 3-D index
// over boxes with eight octants.
package agrid

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"uvdiagram/internal/pager"
	"uvdiagram/internal/wire"
)

// ErrPageCapacity reports a page size whose pages do not hold between
// 1 and pager.MaxLeafTuples leaf tuples.
var ErrPageCapacity = errors.New("agrid: leaf page capacity out of range")

// Shape is what an index supplies to the grid.
type Shape[C any] struct {
	Fanout int                // sub-cells per split: 4 quadrants, 8 octants (at most 8)
	Child  func(c C, k int) C // sub-cell k < Fanout of c
	// Overlaps is CheckOverlap (Algorithm 5): whether object id's cell,
	// as its index records it, can overlap c. It may report spurious
	// overlaps (extra leaf entries) but must never miss a true one.
	Overlaps   func(id int32, c C) bool
	PerPage    int                      // leaf tuples one page holds
	EncodeLeaf func(ids []int32) []byte // one page image of ids' leaf tuples (at most PerPage)
}

// Options are the split policy of Algorithm 4.
type Options struct {
	M          int     // non-leaf budget
	SplitTheta float64 // split threshold Tθ of Equation 10
	MaxDepth   int     // depth bound, a numeric safety net
}

// Node is one node of the grid: a non-leaf holds Fanout children
// covering the sub-cells of its cell; a leaf holds the ids of the
// objects whose cell may overlap its cell and the pages storing their
// leaf tuples.
type Node struct {
	kids       []*Node // nil on a leaf
	ids        []int32
	pagesAlloc int // pages allocated so far (Algorithm 3 OVERFLOW)
	pages      []pager.PageID
	// fresh marks a node the write pass in flight created: the pass
	// mutates it in place, and seal clears the mark (and writes a fresh
	// leaf's pages) before publication. A published node is never fresh.
	fresh bool
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.kids == nil }

// Kid returns child k of non-leaf n.
func (n *Node) Kid(k int) *Node { return n.kids[k] }

// IDs returns leaf n's object list (shared).
func (n *Node) IDs() []int32 { return n.ids }

// Pages returns leaf n's page list (shared).
func (n *Node) Pages() []pager.PageID { return n.pages }

// tree is one immutable published snapshot: the root and the non-leaf
// budget spent.
type tree struct {
	root    *Node
	nonleaf int
}

// Grid is an adaptive grid over a domain cell. Every write pass copies
// the nodes it changes and publishes a new tree with one pointer store,
// so lock-free readers traverse a consistent tree while a mutation
// builds the next one. Writers must be serialized by the caller.
type Grid[C any] struct {
	domain C
	shape  Shape[C]
	opts   Options
	pg     *pager.Pager
	ts     atomic.Pointer[tree]
}

// New returns a grid over domain writing its leaf pages to pg, with no
// tree until the first Install or Load. It fails with ErrPageCapacity
// unless a page holds 1 to pager.MaxLeafTuples tuples.
func New[C any](domain C, shape Shape[C], opts Options, pg *pager.Pager) (*Grid[C], error) {
	if shape.PerPage < 1 || shape.PerPage > pager.MaxLeafTuples {
		return nil, fmt.Errorf("%w: %d-byte pages hold %d leaf tuples, want 1 to %d",
			ErrPageCapacity, pg.PageSize(), shape.PerPage, pager.MaxLeafTuples)
	}
	return &Grid[C]{domain: domain, shape: shape, opts: opts, pg: pg}, nil
}

// Domain returns the grid's root cell.
func (g *Grid[C]) Domain() C { return g.domain }

// Pager returns the simulated disk holding the leaf pages.
func (g *Grid[C]) Pager() *pager.Pager { return g.pg }

// Root returns the published tree's root.
func (g *Grid[C]) Root() *Node { return g.ts.Load().root }

// Leaves visits the leaves of the published tree in preorder with their
// cells and depths. A non-nil within prunes every subtree whose cell it
// rejects.
func (g *Grid[C]) Leaves(within func(C) bool, visit func(cell C, depth int, leaf *Node)) {
	g.walk(g.ts.Load().root, g.domain, 0, within, visit)
}

func (g *Grid[C]) walk(n *Node, cell C, depth int, within func(C) bool, visit func(C, int, *Node)) {
	switch {
	case within != nil && !within(cell):
	case n.IsLeaf():
		visit(cell, depth, n)
	default:
		for k, c := range n.kids {
			g.walk(c, g.shape.Child(cell, k), depth+1, within, visit)
		}
	}
}

// Stats summarize a grid's shape.
type Stats struct {
	NonLeaf    int
	Leaves     int
	Pages      int
	MaxDepth   int
	Entries    int64   // total leaf-list entries
	AvgEntries float64 // average leaf-list length
	MemBytes   int64   // non-leaf footprint at 16 bytes per node (paper)
}

// Stats walks the published tree and reports its shape.
func (g *Grid[C]) Stats() Stats {
	t := g.ts.Load()
	st := Stats{NonLeaf: t.nonleaf, MemBytes: int64(t.nonleaf) * 16}
	g.walk(t.root, g.domain, 0, nil, func(_ C, depth int, n *Node) {
		st.MaxDepth = max(st.MaxDepth, depth)
		st.Leaves++
		st.Pages += len(n.pages)
		st.Entries += int64(len(n.ids))
	})
	if st.Leaves > 0 {
		st.AvgEntries = float64(st.Entries) / float64(st.Leaves)
	}
	return st
}

// Verify checks the publication invariants of the published tree: no
// node still carries the fresh mark (its pass would otherwise keep
// mutating it under pinned readers), and every leaf owns at least the
// pages its list needs.
func (g *Grid[C]) Verify() error {
	var err error
	var check func(n *Node)
	check = func(n *Node) {
		if n.fresh && err == nil {
			err = fmt.Errorf("agrid: a published node (leaf %v) still carries the fresh mark", n.IsLeaf())
		}
		if need := g.pagesFor(len(n.ids)); n.IsLeaf() && len(n.pages) < need && err == nil {
			err = fmt.Errorf("agrid: leaf of %d ids owns %d pages, needs %d", len(n.ids), len(n.pages), need)
		}
		for _, c := range n.kids {
			check(c)
		}
	}
	check(g.ts.Load().root)
	return err
}

// pagesFor returns the pages a leaf list of n ids needs: at least one,
// mirroring the paper's linked page lists.
func (g *Grid[C]) pagesFor(n int) int {
	return max(1, (n+g.shape.PerPage-1)/g.shape.PerPage)
}

// writeLeaf chunks a leaf's tuples into freshly allocated pages.
func (g *Grid[C]) writeLeaf(ids []int32) []pager.PageID {
	var pages []pager.PageID
	for off := 0; ; off += g.shape.PerPage {
		end := min(off+g.shape.PerPage, len(ids))
		pages = append(pages, g.pg.Alloc(g.shape.EncodeLeaf(ids[off:end])))
		if end >= len(ids) {
			return pages
		}
	}
}

// Pass is one write pass (Algorithms 3–4 as copy-on-write): a build
// inserts every object into an empty root, a load decodes a tree, a live
// mutation removes and inserts objects in the published one. A pass
// copies the published nodes it changes and mutates the nodes it created
// (the fresh ones) in place, so a long pass copies each node at most
// once. It carries the running non-leaf budget, the entry-weighted churn
// and the replaced pages to retire after publication.
type Pass[C any] struct {
	g       *Grid[C]
	nonleaf int
	entries int  // leaf entries touched (removed + created)
	changed bool // any structural change (splits can change without entries)
	retired []pager.PageID
}

// Begin starts a write pass and returns it with the root to write from:
// the published root, or a fresh empty leaf before the first publication.
func (g *Grid[C]) Begin() (*Pass[C], *Node) {
	p := &Pass[C]{g: g}
	t := g.ts.Load()
	if t == nil {
		return p, p.leaf(nil)
	}
	p.nonleaf = t.nonleaf
	return p, t.root
}

// Changed reports whether the pass changed the tree.
func (p *Pass[C]) Changed() bool { return p.changed }

// Entries returns the leaf entries the pass touched (removed + created).
func (p *Pass[C]) Entries() int { return p.entries }

// Retired returns the published pages the pass replaced. They stay
// readable until the caller frees them, once no reader pinned before
// Install can still reach them.
func (p *Pass[C]) Retired() []pager.PageID { return p.retired }

// leaf returns a fresh leaf listing ids, with the pages its list needs
// allocated.
func (p *Pass[C]) leaf(ids []int32) *Node {
	return &Node{ids: ids, pagesAlloc: p.g.pagesFor(len(ids)), fresh: true}
}

// copyLeaf returns a fresh, mutable copy of published leaf n with its
// pages retired; the copy's pages are written at seal time.
func (p *Pass[C]) copyLeaf(n *Node) *Node {
	p.retired = append(p.retired, n.pages...)
	return &Node{ids: append([]int32(nil), n.ids...), pagesAlloc: n.pagesAlloc, fresh: true}
}

// withKids returns the replacement of non-leaf n once its children are
// kids: n itself when no child changed or when the pass created n (it
// is then updated in place), otherwise a fresh copy.
func (p *Pass[C]) withKids(n *Node, kids []*Node) *Node {
	switch {
	case slices.Equal(kids, n.kids):
		return n
	case n.fresh:
		copy(n.kids, kids)
		return n
	}
	return &Node{kids: slices.Clone(kids), fresh: true}
}

// Insert is Algorithm 3 (InsertObj): it adds id to every leaf under root
// that id's cell can overlap and returns the replacement of root. An
// object whose cell cannot reach the grid's domain is dropped by the
// root-level overlap test and leaves the tree untouched, which is how a
// spatial shard rejects out-of-region objects.
func (p *Pass[C]) Insert(id int32, root *Node) *Node {
	return p.insert(id, root, p.g.domain, 0)
}

func (p *Pass[C]) insert(id int32, n *Node, cell C, depth int) *Node {
	sh := &p.g.shape
	if !sh.Overlaps(id, cell) {
		return n
	}
	if !n.IsLeaf() {
		var buf [8]*Node // Fanout ≤ 8: the copy stays on the stack
		kids := append(buf[:0], n.kids...)
		for k := range kids {
			kids[k] = p.insert(id, kids[k], sh.Child(cell, k), depth+1)
		}
		return p.withKids(n, kids)
	}
	kids, overflow := p.checkSplit(id, n, cell, depth)
	p.changed = true
	if kids != nil {
		// The tentative children (which already include id where it
		// overlaps) replace the leaf. A published leaf's pages are
		// retired; a fresh one has none and simply drops out of the tree.
		if !n.fresh {
			p.retired = append(p.retired, n.pages...)
		}
		p.nonleaf++
		for _, c := range kids {
			if len(c.ids) > 0 && c.ids[0] == id {
				p.entries++
			}
		}
		return &Node{kids: kids, fresh: true}
	}
	nl := n
	if !n.fresh {
		nl = p.copyLeaf(n)
	}
	if overflow && len(nl.ids) >= nl.pagesAlloc*sh.PerPage {
		nl.pagesAlloc++ // grant a new page (Algorithm 3 OVERFLOW)
	}
	nl.ids = append(nl.ids, id)
	p.entries++
	return nl
}

// checkSplit is Algorithm 4 (CheckSplit) against the pass's running
// non-leaf budget: NORMAL while the leaf has page space (nil, false),
// OVERFLOW when splitting is not allowed or not useful (nil, true), and
// SPLIT with the tentative fresh children, id listed first wherever it
// overlaps.
func (p *Pass[C]) checkSplit(id int32, leaf *Node, cell C, depth int) (kids []*Node, overflow bool) {
	g := p.g
	if len(leaf.ids) < leaf.pagesAlloc*g.shape.PerPage {
		return nil, false
	}
	if p.nonleaf+1 > g.opts.M || depth >= g.opts.MaxDepth {
		return nil, true
	}
	// Tentative redistribution of A = {Oi} ∪ leaf.ids into the sub-cells.
	kids = make([]*Node, g.shape.Fanout)
	minCount := -1
	for k := range kids {
		var ids []int32
		sub := g.shape.Child(cell, k)
		if g.shape.Overlaps(id, sub) {
			ids = append(ids, id)
		}
		for _, j := range leaf.ids {
			if g.shape.Overlaps(j, sub) {
				ids = append(ids, j)
			}
		}
		kids[k] = p.leaf(ids)
		if minCount < 0 || len(ids) < minCount {
			minCount = len(ids)
		}
	}
	if theta := float64(minCount) / float64(len(leaf.ids)); theta < g.opts.SplitTheta { // Equation 10
		return kids, false
	}
	return nil, true
}

// Remove strips every id in remove from the leaf lists under root and
// returns the replacement of root (root itself when nothing changed).
func (p *Pass[C]) Remove(root *Node, remove map[int32]bool) *Node {
	if !root.IsLeaf() {
		var buf [8]*Node
		kids := append(buf[:0], root.kids...)
		for k := range kids {
			kids[k] = p.Remove(kids[k], remove)
		}
		return p.withKids(root, kids)
	}
	removed := 0
	for _, id := range root.ids {
		if remove[id] {
			removed++
		}
	}
	if removed == 0 {
		return root
	}
	nl := root
	if !root.fresh {
		nl = p.copyLeaf(root)
	}
	nl.ids = slices.DeleteFunc(nl.ids, func(id int32) bool { return remove[id] })
	p.entries += removed
	p.changed = true
	return nl
}

// Install seals the tree under root — writes every fresh leaf's pages
// and clears the fresh marks — and publishes it with one pointer store.
func (p *Pass[C]) Install(root *Node) {
	p.seal(root)
	p.g.ts.Store(&tree{root: root, nonleaf: p.nonleaf})
}

// seal walks only fresh nodes: every ancestor of a fresh node is fresh
// (the pass copied the path down to it), so it visits nothing it did not
// create.
func (p *Pass[C]) seal(n *Node) {
	if !n.fresh {
		return
	}
	n.fresh = false
	if n.IsLeaf() {
		n.pages = p.g.writeLeaf(n.ids)
	}
	for _, c := range n.kids {
		p.seal(c)
	}
}

// The preorder tree codec both index streams share: a leaf is tag 0,
// its count-prefixed id list and whatever its writer appends; a
// non-leaf is tag 1 and its Fanout children.

// maxTreeNodes bounds the node count of a decoded tree against corrupt
// streams.
const maxTreeNodes = 1 << 24

// PutIDs appends a count-prefixed id list.
func PutIDs(w *wire.Buffer, ids []int32) {
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.I32(id)
	}
}

// ReadIDs reads a count-prefixed id list whose ids must all lie below
// max (the object count).
func ReadIDs(r *wire.Reader, max int) ([]int32, error) {
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

// PutTree appends the published tree to w; a non-nil leaf appends what
// a leaf carries beyond its id list.
func (g *Grid[C]) PutTree(w *wire.Buffer, leaf func(pages []pager.PageID)) {
	var put func(n *Node)
	put = func(n *Node) {
		if !n.IsLeaf() {
			w.U32(1)
			for _, c := range n.kids {
				put(c)
			}
			return
		}
		w.U32(0)
		PutIDs(w, n.ids)
		if leaf != nil {
			leaf(n.pages)
		}
	}
	put(g.ts.Load().root)
}

// Load decodes a tree PutTree wrote, over object ids below n, and
// publishes it. A non-nil pages reads a leaf's existing page list (what
// PutTree's leaf callback appended): a snapshot open, which writes
// nothing. With a nil pages every leaf is fresh and gets its pages
// written, as a build's would.
func (g *Grid[C]) Load(r *wire.Reader, n int, pages func(ids []int32) ([]pager.PageID, error)) error {
	p := &Pass[C]{g: g}
	var nodes int
	var read func() (*Node, error)
	read = func() (*Node, error) {
		if nodes++; nodes > maxTreeNodes {
			return nil, fmt.Errorf("node count exceeds sanity bound")
		}
		switch tag := r.U32(); {
		case r.Err() != nil:
			return nil, r.Err()
		case tag == 0:
			ids, err := ReadIDs(r, n)
			if err != nil || pages == nil {
				return p.leaf(ids), err
			}
			pids, err := pages(ids)
			if err == nil && len(pids) < g.pagesFor(len(ids)) {
				err = fmt.Errorf("leaf of %d ids claims only %d pages", len(ids), len(pids))
			}
			return &Node{ids: ids, pages: pids, pagesAlloc: len(pids)}, err
		case tag == 1:
			// A non-leaf is fresh when a child is, so seal reaches every
			// fresh leaf.
			node := &Node{kids: make([]*Node, g.shape.Fanout)}
			for k := range node.kids {
				c, err := read()
				if err != nil {
					return nil, err
				}
				node.kids[k] = c
				node.fresh = node.fresh || c.fresh
			}
			p.nonleaf++
			return node, nil
		default:
			return nil, fmt.Errorf("bad node tag")
		}
	}
	root, err := read()
	if err != nil {
		return err
	}
	p.Install(root)
	return nil
}
