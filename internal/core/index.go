package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"uvdiagram/internal/agrid"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
)

// IndexOptions configure the adaptive grid of Section V.
type IndexOptions struct {
	// M is the maximum number of non-leaf nodes kept in main memory
	// (paper default 4000). Once exhausted, full leaves overflow into
	// longer page lists instead of splitting.
	M int
	// SplitTheta is the split threshold Tθ of Equation 10 (paper
	// default 1: split whenever redistribution separates anything).
	SplitTheta float64
	// PageSize is the simulated disk page size (default 4 KB).
	PageSize int
	// MaxDepth bounds the quad-tree depth as a numeric safety net; the
	// paper bounds depth only through M.
	MaxDepth int
}

// DefaultIndexOptions returns the paper's configuration.
func DefaultIndexOptions() IndexOptions {
	return IndexOptions{M: 4000, SplitTheta: 1.0, PageSize: pager.DefaultPageSize, MaxDepth: 28}
}

func (o *IndexOptions) normalize() {
	if o.M <= 0 {
		o.M = 4000
	}
	if o.SplitTheta <= 0 {
		o.SplitTheta = 1.0
	}
	if o.PageSize <= 0 {
		o.PageSize = pager.DefaultPageSize
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 28
	}
}

// UVIndex is the UV-diagram index: an adaptive quad-tree whose leaves
// list every object whose UV-cell overlaps the leaf region. Cells are
// never materialized — overlap is decided from cr-object constraint
// sets by the 4-point test (Algorithm 5).
type UVIndex struct {
	opts  IndexOptions
	store *uncertain.Store
	// cr is the constraint bookkeeping the leaf lists were built from.
	// A standalone index owns its registry; the spatial shards of one
	// engine all point at the engine's single shared CRState, so cell
	// representations are recorded once, not once per shard.
	cr *CRState
	// g is the adaptive grid over the index's domain: quadrants, the
	// 4-point overlap test and <ID, MBC, pointer> leaf tuples. Every
	// constructor publishes its first tree before it returns the index.
	g *agrid.Grid[geom.Rect]
	// dom, when set, reclaims the page slots COW mutations replace once
	// every reader pinned before publication has unpinned. Nil orphans
	// retired pages (the pre-reclamation behavior).
	dom *epoch.Domain
	// slack counts the leaf-list churn accumulated by live mutations
	// since construction, weighted by the number of leaf-list ENTRIES
	// actually touched (added or removed) rather than per object, so
	// the count is scale-free: a delete that re-derives a hub object
	// rewriting 400 leaf entries accrues 400, a boundary insert touching
	// 3 leaves accrues 3.
	slack atomic.Int64
	// orderK is the order of the indexed cells: leaves list the objects
	// whose ORDER-k UV-cell (the region where the object can be among
	// the k nearest neighbors) overlaps the leaf region. The classic
	// UV-diagram of the paper is orderK = 1; higher orders realize the
	// k-th order Voronoi generalization ([30]) the paper lists as
	// future work.
	orderK int
	// gen counts structural mutations (live inserts and deletes).
	// Continuous sessions compare it against the generation their safe
	// circle was computed at, so a session never trusts a circle from
	// before a mutation.
	gen atomic.Uint64
}

// newIndex returns an index of cell order orderK over domain with no
// tree yet: BuildRegionCR, LoadUVIndex and OpenUVIndexSnapshot each
// publish the first one before they return the index. The index reads
// cell representations from cr, which the spatial shards of one engine
// share. A nil pg gets a fresh in-memory pager. It fails when a page of
// opts.PageSize bytes holds no leaf tuple, or more than its count
// prefix can number.
//
// Cells are represented by cr-object ID lists rather than materialized
// constraints: at paper densities an object has hundreds of cr-objects
// (the 95% pruning ratio of Figure 7(b) still leaves |Ci| ≈ 0.05·n), so
// the index keeps 4 bytes per cr-object and derives each outside-region
// test from the two objects' geometry on the fly.
func newIndex(store *uncertain.Store, domain geom.Rect, opts IndexOptions, cr *CRState, orderK int, pg *pager.Pager) (*UVIndex, error) {
	opts.normalize()
	if pg == nil {
		pg = pager.New(opts.PageSize)
	}
	ix := &UVIndex{opts: opts, store: store, cr: cr, orderK: orderK}
	shape := agrid.Shape[geom.Rect]{
		Fanout:     4,
		Child:      geom.Rect.Quadrant,
		Overlaps:   ix.overlaps,
		PerPage:    pager.TuplesPerPage(opts.PageSize),
		EncodeLeaf: ix.encodeLeaf,
	}
	g, err := agrid.New(domain, shape, agrid.Options{M: opts.M, SplitTheta: opts.SplitTheta, MaxDepth: opts.MaxDepth}, pg)
	if err != nil {
		return nil, err
	}
	ix.g = g
	return ix, nil
}

// SetReclaimDomain attaches the epoch domain used to reclaim the page
// slots COW mutations replace. Without one, retired pages are orphaned
// on the simulated disk.
func (ix *UVIndex) SetReclaimDomain(d *epoch.Domain) { ix.dom = d }

// retirePages schedules replaced page slots for reuse once every
// reader pinned before the mutation published has unpinned.
func (ix *UVIndex) retirePages(ids []pager.PageID) {
	if len(ids) == 0 || ix.dom == nil {
		return
	}
	pg := ix.g.Pager()
	ix.dom.Retire(func() { pg.Free(ids) })
}

// OrderK returns the cell order the index was built for (1 for the
// paper's UV-diagram).
func (ix *UVIndex) OrderK() int { return ix.orderK }

// Domain returns the indexed domain D.
func (ix *UVIndex) Domain() geom.Rect { return ix.g.Domain() }

// Pager exposes the index's simulated disk for I/O accounting.
func (ix *UVIndex) Pager() *pager.Pager { return ix.g.Pager() }

// CRObjects returns the ids whose outside regions represent object id's
// UV-cell in the index (its cr-objects, or exact r-objects under
// ICR/Basic construction). The slice is shared.
func (ix *UVIndex) CRObjects(id int32) []int32 { return ix.cr.crOf[id] }

// Dependents returns the ids of the objects whose cr-set contains id —
// exactly the objects whose UV-cell can grow if id is deleted. The
// slice is shared; callers must not modify it.
func (ix *UVIndex) Dependents(id int32) []int32 { return ix.cr.revCR[id] }

// CR exposes the index's constraint registry (shared across the shards
// of one engine; see CRState).
func (ix *UVIndex) CR() *CRState { return ix.cr }

// AttachCR repoints the index at an external registry. The caller must
// guarantee the registry records the same constraint sets the leaf
// lists were built from (Open's legacy reader verifies with EqualCROf
// first); attaching a divergent registry silently breaks delete
// bookkeeping.
func (ix *UVIndex) AttachCR(cr *CRState) { ix.cr = cr }

// RepReaches reports whether object id's UV-cell, as represented by
// crIDs, can overlap rectangle r (the 4-point test of Algorithm 5). The
// representation is conservative, so a false result is definitive while
// a true result may be spurious. Delete repair uses it to pick the
// shards a victim's or dependent's cell reaches, before and after the
// registry changes.
func (ix *UVIndex) RepReaches(id int32, crIDs []int32, r geom.Rect) bool {
	return ix.overlapsIDs(ix.store.At(int(id)), crIDs, r)
}

// Slack returns the accumulated live-mutation churn since construction:
// the leaf entries InsertLeafLive and RemoveAndReinsertLive touched. A
// freshly built or loaded index has slack 0. It measures write churn,
// not leaf-list bloat.
func (ix *UVIndex) Slack() int64 { return ix.slack.Load() }

// Gen returns the index's mutation generation, bumped by every
// InsertLeafLive or RemoveAndReinsertLive that changed the tree (0 on a
// freshly built or loaded index). Derived structures snapshot it to
// detect that the population they were built over has changed.
func (ix *UVIndex) Gen() uint64 { return ix.gen.Load() }

// Answer is one PNN result: an object and its qualification probability.
type Answer struct {
	ID   int32
	Prob float64
}

// QueryStats instruments a query with the component costs reported in
// Figure 6: index traversal, object retrieval and probability
// computation, plus I/O counts.
type QueryStats struct {
	IndexIOs    int64
	ObjectIOs   int64 // object records fetched, the paper's object-retrieval I/O
	ObjectPages int64 // distinct object-store pages those records lie on
	TraverseDur time.Duration
	RetrieveDur time.Duration
	ProbDur     time.Duration
	LeafEntries int  // tuples read from the leaf's page list
	Candidates  int  // survivors of the dminmax filter
	Depth       int  // leaf depth reached
	CDFEvals    int  // distance-CDF evaluations of the quadrature: radii × answer-set size
	QuadCapped  bool // the quadrature stopped at its cap without converging (prob.Integrate)
}

// Total returns the summed duration of all components.
func (s QueryStats) Total() time.Duration {
	return s.TraverseDur + s.RetrieveDur + s.ProbDur
}

// leafAt is the one leaf lookup behind PNN, PossibleKNN and the
// continuous session: check q is in the domain, walk the in-memory
// non-leaf nodes to the leaf containing q, and read and decode its page
// list from the simulated disk into buf, which it truncates first. It
// returns the leaf's tuples (buf, grown), its region, its depth and the
// number of page reads.
func (ix *UVIndex) leafAt(q geom.Point, buf []pager.LeafTuple) (tuples []pager.LeafTuple, region geom.Rect, depth int, ios int64, err error) {
	region = ix.g.Domain()
	if !region.Contains(q) {
		return nil, region, 0, 0, fmt.Errorf("core: query point %v outside domain %v", q, region)
	}
	n := ix.g.Root()
	for !n.IsLeaf() {
		k := region.QuadrantFor(q)
		n = n.Kid(k)
		region = region.Quadrant(k)
		depth++
	}
	pg := ix.g.Pager()
	tuples = buf[:0]
	for _, pid := range n.Pages() {
		if tuples, err = pager.AppendLeafTuples(tuples, pg.Read(pid)); err != nil {
			return nil, region, depth, ios, fmt.Errorf("core: leaf page %d: %w", pid, err)
		}
		ios++
	}
	return tuples, region, depth, ios, nil
}

// QueryScratch carries the reusable buffers of the PNN hot path — the
// leaf's decoded tuples, the candidate id list, the fetched-candidate
// slice and the probability-integration vectors. A fetch decodes no
// pdf (the store holds one per bar list), so a scratch holds no pdfs
// either. A scratch is owned by one goroutine at a time; the batch
// engine pools them across workers.
type QueryScratch struct {
	tuples  []pager.LeafTuple
	candIDs []int32
	cands   []uncertain.Object
	prob    prob.Scratch
}

// PNN answers a probabilistic nearest-neighbor query at q (Section V-A):
// descend to the leaf containing q, read its page list, filter with the
// dminmax bound of [14], fetch the survivors' uncertainty information
// and compute qualification probabilities by numerical integration.
func (ix *UVIndex) PNN(q geom.Point) ([]Answer, QueryStats, error) {
	return ix.PNNWith(q, nil)
}

// PNNWith is PNN over a caller-owned query scratch — the pooled hot
// path of the DB's single and batch queries. Answers are bitwise
// identical with or without one (the scratch only recycles buffers);
// nil uses a fresh scratch.
func (ix *UVIndex) PNNWith(q geom.Point, sc *QueryScratch) ([]Answer, QueryStats, error) {
	if sc == nil {
		sc = new(QueryScratch)
	}
	var st QueryStats

	// Snapshot the population BEFORE the tree. Writers order a delete as
	// leaf-publish THEN tombstone and an insert as store-append THEN
	// leaf-publish, so a view captured first can never be missing an
	// object the subsequently loaded tree still lists (ids past the view
	// are guarded below, ids dead in the view are filtered) — every query
	// observes exactly the pre-mutation or the post-mutation answer,
	// never a hybrid, and never fetches a tombstoned record.
	view := ix.store.View()

	// Phase 1: index traversal (non-leaf nodes are in memory; the leaf
	// page list is read from disk).
	t0 := time.Now()
	tuples, _, depth, ios, err := ix.leafAt(q, sc.tuples)
	if err != nil {
		return nil, st, err
	}
	sc.tuples = tuples
	st.Depth = depth
	st.IndexIOs = ios
	st.LeafEntries = len(tuples)

	// dminmax filter on MBCs only (no object I/O yet). Tuples outside
	// the captured view — tombstoned, or appended after it — are dropped
	// BEFORE the bound computation, so a dying neighbor can neither
	// tighten nor loosen dminmax for the population this query answers
	// over. On a quiescent index the filter passes everything: delete
	// surgery strips victims from every leaf before they are tombstoned.
	dminmax := infinity
	for _, t := range tuples {
		if int(t.ID) >= view.Len() || !view.Alive(t.ID) {
			continue
		}
		if d := q.Dist(geom.Pt(t.CX, t.CY)) + t.R; d < dminmax {
			dminmax = d
		}
	}
	candIDs := sc.candIDs[:0]
	for _, t := range tuples {
		if int(t.ID) >= view.Len() || !view.Alive(t.ID) {
			continue
		}
		dmin := q.Dist(geom.Pt(t.CX, t.CY)) - t.R
		if dmin < 0 {
			dmin = 0
		}
		if dmin <= dminmax {
			candIDs = append(candIDs, t.ID)
		}
	}
	sc.candIDs = candIDs
	st.TraverseDur = time.Since(t0)

	answers, err := AnswerFrom(view, q, candIDs, sc, &st)
	return answers, st, err
}

// AnswerFrom is the fetch-and-integrate half of a PNN over candidate
// ids, shared by the UV-index (PNNWith) and the R-tree baseline. It
// sorts ids in place, fetches the objects through view (one ObjectIO
// each, counting the distinct ObjectPages), integrates their
// qualification probabilities and returns the answers with p > 0, in
// that sorted id order. It sets st's Candidates, retrieval and
// integration fields. The sort is the canonical candidate order: the
// integration's floating-point products depend on operand order, so
// whichever index produced the set, and in whatever order (leaf tuples
// appended by incremental maintenance, an R-tree walk), the same set
// gives bitwise-identical answers.
func AnswerFrom(view *uncertain.View, q geom.Point, ids []int32, sc *QueryScratch, st *QueryStats) ([]Answer, error) {
	t1 := time.Now()
	slices.Sort(ids)
	st.Candidates = len(ids)
	cands := sc.cands[:0]
	for _, id := range ids {
		o, err := view.Fetch(id)
		if err != nil {
			return nil, err
		}
		cands = append(cands, o)
		st.ObjectIOs++
	}
	st.ObjectPages = view.Pages(ids)
	sc.cands = cands
	st.RetrieveDur = time.Since(t1)

	t2 := time.Now()
	ps := prob.ProbsShared(view, cands, q, &sc.prob)
	st.CDFEvals, st.QuadCapped = sc.prob.CDFEvals, sc.prob.Capped
	n := 0
	for _, p := range ps {
		if p > 0 {
			n++
		}
	}
	var answers []Answer
	if n > 0 {
		answers = make([]Answer, 0, n)
	}
	for i, p := range ps {
		if p > 0 {
			answers = append(answers, Answer{ID: cands[i].ID, Prob: p})
		}
	}
	st.ProbDur = time.Since(t2)
	return answers, nil
}

const infinity = 1e308

// IndexStats summarize the built index.
type IndexStats = agrid.Stats

// Stats walks the tree and reports its shape.
func (ix *UVIndex) Stats() IndexStats { return ix.g.Stats() }
