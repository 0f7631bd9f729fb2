package core

import (
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"time"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Order-k UV-cells generalize the UV-diagram to the possible-k-NN
// query, the k-th order Voronoi direction ([30]) the paper lists as
// future work.
//
// The ORDER-k UV-cell of Oi is the region where Oi has a non-zero
// probability of being among the k nearest neighbors:
//
//	Uiᵏ = { q : |{ j ≠ i : distmax(Oj,q) < distmin(Oi,q) }| < k },
//
// i.e. fewer than k objects are *surely* closer. A point q is excluded
// exactly when at least k outside regions Xi(j) contain it, so along a
// ray from ci the cell extends to the k-th smallest radial constraint
// bound — the order-k region is star-shaped around ci by the same
// triangle-inequality argument as the order-1 cell (DESIGN.md §3), and
// the whole radial machinery lifts by replacing "minimum" with "k-th
// smallest".

// RadiusDirK returns the extent of the order-k region along the unit
// direction dir: the minimum of the domain exit and the k-th smallest
// constraint bound (the domain is a hard boundary at every order). For
// k = 1 it agrees with RadiusDir.
func (p *PossibleRegion) RadiusDirK(dir geom.Point, k int) float64 {
	if k <= 1 {
		r, _ := p.RadiusDir(dir)
		return r
	}
	dom, _ := domainBound(p.center, p.domain, dir)
	kth := make([]float64, 0, k)
	for i := range p.cons {
		if t, ok := p.cons[i].Bound(dir); ok {
			kth = derive.PushK(kth, k, t)
		}
	}
	return derive.KthOr(kth, k, dom)
}

// RadiusK is RadiusDirK at polar angle phi.
func (p *PossibleRegion) RadiusK(phi float64, k int) float64 {
	return p.RadiusDirK(geom.PolarUnit(phi), k)
}

// ContainsK reports whether q belongs to the order-k region: inside the
// domain with fewer than k constraints excluding it.
func (p *PossibleRegion) ContainsK(q geom.Point, k int) bool {
	if !p.domain.Contains(q) {
		return false
	}
	excluders := 0
	for i := range p.cons {
		if p.cons[i].Edge.InOutside(q) {
			excluders++
			if excluders >= k {
				return false
			}
		}
	}
	return true
}

// MaxRadiusK returns (a slightly inflated upper bound on) the maximum
// distance of the order-k region from the center — the quantity
// consumed by the order-k I-pruning filter. Computed by a dense angular
// sweep with golden-section polishing of each local maximum;
// overestimating only weakens pruning, never its correctness.
func (p *PossibleRegion) MaxRadiusK(samples, k int) float64 {
	if samples < 8 {
		samples = 8
	}
	eval := func(phi float64) float64 { return p.RadiusK(phi, k) }
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = eval(2 * math.Pi * float64(i) / float64(samples))
	}
	return derive.RingMax(vals, eval)
}

// AreaK approximates the area of the order-k region by the radial
// quadrature ½∮R_k(φ)²dφ with midpoint sampling.
func (p *PossibleRegion) AreaK(samples, k int) float64 {
	if samples < 8 {
		samples = 8
	}
	acc := 0.0
	for i := 0; i < samples; i++ {
		phi := 2 * math.Pi * (float64(i) + 0.5) / float64(samples)
		r := p.RadiusK(phi, k)
		acc += r * r
	}
	return acc * math.Pi / float64(samples)
}

// orderKDeriver is the order-k engine's side of internal/derive for one
// DeriveOrderKCR call: it fills the bound table's rows over a uniform
// angle ring, answers the fixpoint's range queries off the R-tree and
// bounds the region's radius with MaxRadiusK's sweep-and-polish. It
// lives inside the DeriveScratch so that handing it to derive.Fixpoint
// as an interface allocates nothing.
type orderKDeriver struct {
	tab   derive.Table
	dirs  []geom.Point // the shared sweep directions of its resolution (ringOf)
	edges []Constraint // cached constraints, by table row (golden-section probes)
	cands []int32      // seed ids, then the fixpoint's candidate set
	kth   []float64    // k-smallest buffer of the polish probes

	// The call in flight.
	tree   *rtree.Tree
	oi     uncertain.Object
	objs   []uncertain.Object
	domain geom.Rect
	k      int
}

// begin starts one DeriveOrderKCR call: it picks up the shared sweep
// directions if the resolution changed, drops the previous object's
// rows and refreshes the per-angle domain bounds for the new center
// (pure per direction, shared by every fixpoint round).
func (e *orderKDeriver) begin(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, samples int) {
	e.tree, e.oi, e.objs, e.domain, e.k = tree, oi, objs, domain, k
	if len(e.dirs) != samples {
		e.dirs = ringOf(samples).dirs
	}
	e.tab.Begin(len(objs), samples)
	for i, dir := range e.dirs {
		e.tab.Exit[i], _ = domainBound(oi.Region.C, domain, dir)
	}
	if cap(e.kth) < k {
		e.kth = make([]float64, 0, k)
	}
}

// FillRow implements derive.Filler: candidate j's constraint and its
// radial bounds over the sweep ring.
func (e *orderKDeriver) FillRow(j int32, idx int, row []float64) bool {
	c, ok := NewConstraint(e.oi, e.objs[j])
	if !ok {
		return false
	}
	inf := math.Inf(1)
	for i, dir := range e.dirs {
		if t, ok := c.Bound(dir); ok {
			row[i] = t
		} else {
			row[i] = inf
		}
	}
	e.edges = append(e.edges[:idx], c)
	return true
}

// Range implements derive.Pruner over the helper R-tree (or by brute
// force without one). The ids are unique, so ascending order is
// canonical whatever the collection order.
func (e *orderKDeriver) Range(radius float64, buf []int32) []int32 {
	c, self := e.oi.Region.C, e.oi.ID
	if e.tree != nil {
		e.tree.CenterRangeFunc(geom.Circle{C: c, R: radius}, func(it rtree.Item) {
			if it.ID != self {
				buf = append(buf, it.ID)
			}
		})
	} else {
		for j := range e.objs {
			if e.objs[j].ID != self && e.objs[j].Region.C.Dist(c) <= radius {
				buf = append(buf, e.objs[j].ID)
			}
		}
	}
	slices.Sort(buf)
	return buf
}

// Bound implements derive.Pruner: MaxRadiusK over the cached bound
// rows. Per sweep angle the table folds the k-th smallest of the
// candidates' bounds against the domain bound — the value RadiusDirK
// computes — and each local maximum is polished with the same
// golden-section schedule, probing arbitrary angles through the cached
// constraints. The result is bitwise identical to
// pr.MaxRadiusK(samples, k) with pr holding the candidates'
// constraints.
func (e *orderKDeriver) Bound(cands []int32) float64 {
	e.tab.Activate(cands, e)
	return derive.RingMax(e.tab.Fold(e.k), e.radiusAt)
}

// radiusAt evaluates the order-k radial function at angle phi over the
// active rows' constraints — RadiusDirK's exact arithmetic (domain
// bound, then the k-th smallest existing constraint bound, folded in
// constraint order) — so the value is bitwise identical to
// pr.RadiusK(phi, k) with pr holding the active constraints.
func (e *orderKDeriver) radiusAt(phi float64) float64 {
	dir := geom.PolarUnit(phi)
	r, _ := domainBound(e.oi.Region.C, e.domain, dir)
	if e.k <= 1 {
		for _, idx := range e.tab.Active() {
			if t, ok := e.edges[idx].Bound(dir); ok && t < r {
				r = t
			}
		}
		return r
	}
	kth := e.kth[:0]
	for _, idx := range e.tab.Active() {
		if t, ok := e.edges[idx].Bound(dir); ok {
			kth = derive.PushK(kth, e.k, t)
		}
	}
	return derive.KthOr(kth, e.k, r)
}

// DeriveOrderKCR derives the candidate reference objects of Oi's
// ORDER-k cell by iterating the I-pruning filter (Lemma 2, which is
// order-independent: a constraint whose center lies outside
// Cir(ci, 2d−ri), d the region's max radius, cannot intersect the
// region and so can neither exclude points from it nor count toward
// any point's k excluders). A seed phase first bounds the region with
// the ~8(k+1) nearest neighbors — the order-k analogue of the paper's
// sectored seeds: the k-th smallest radial bound needs at least k
// crossings per direction before it leaves the domain scale — and
// derive.Fixpoint shrinks candidate set and radius from there.
//
// The returned region carries the surviving constraints; the returned
// ids are the order-k cr-objects fed to the index.
//
// The derivation runs through sc's reusable buffers (NN-browse heap,
// region with its constraint storage, candidate buffer, the cross-round
// bound table), so a long-lived scratch makes steady-state derivation
// allocate only the returned cr-set — and the table means each
// candidate's sweep bounds are evaluated once per derive call instead
// of once per fixpoint round. A nil sc uses a private one. The returned
// region is OWNED BY THE SCRATCH and is only valid until its next use;
// the cr-set is freshly allocated and safe to retain. Results are
// bitwise identical to DeriveOrderKCRReference.
func DeriveOrderKCR(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, samples int, sc *DeriveScratch) ([]int32, *PossibleRegion) {
	if sc == nil {
		sc = NewDeriveScratch()
	}
	if samples < 8 {
		samples = 8 // MaxRadiusK's clamp, applied once up front
	}
	e := &sc.orderK
	e.begin(tree, oi, objs, domain, k, samples)
	// Seed phase: the lazy NN browse pops the exact prefix the eager
	// KNN(c, 8(k+1)) materializes, without building the neighbor slice.
	seeds := e.cands[:0]
	if tree != nil {
		sc.it.Reset(tree, oi.Region.C)
		for pulled := 0; pulled < 8*(k+1); pulled++ {
			nb, ok := sc.it.Next()
			if !ok {
				break
			}
			if nb.Item.ID != oi.ID {
				seeds = append(seeds, nb.Item.ID)
			}
		}
	}
	e.cands = derive.Fixpoint(e, e.Bound(seeds), oi.Region.R, 8, seeds)
	// Materialize the final round's region once, from cached constraints
	// (the constructor is pure, so these are the exact constraints the
	// reference's per-round AddObject loop ends with, in the same order).
	pr := &sc.region
	pr.Reset(oi.Region.C, domain)
	for _, idx := range e.tab.Active() {
		pr.Add(e.edges[idx])
	}
	return append([]int32(nil), e.cands...), pr // nil when empty
}

// BuildOrderK constructs an order-k UV-index over the store: an
// adaptive grid whose leaves list every object whose order-k cell
// overlaps the leaf region. PossibleKNN answers exactly against it.
// Derivation visits every live object on the same derive.Each driver
// as DeriveCRSets (per-worker scratch arenas, one shared R-tree);
// insertion is sequential. The index — leaf lists, stats and query
// answers — is bitwise identical to BuildOrderKReference's at every
// worker count.
func BuildOrderK(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, k int, opts BuildOptions) (*UVIndex, BuildStats, error) {
	if k < 1 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK needs k ≥ 1, got %d", k)
	}
	if store.Live() == 0 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK over empty store")
	}
	t0 := time.Now()
	opts.normalize()
	stats := BuildStats{Strategy: opts.Strategy, N: store.Live(), Workers: opts.Workers}
	objs := store.Dense() // position == id; tombstoned slots skipped
	crSets := make([][]int32, len(objs))
	type worker struct {
		sc    *DeriveScratch
		prune time.Duration
		sumCR int64
	}
	workers := derive.Each(len(objs), opts.Workers, pprof.Labels("engine", "orderk", "stage", "derive"),
		func() *worker { return &worker{sc: NewDeriveScratch()} },
		func(w *worker, i int) {
			if !store.Alive(int32(i)) {
				return
			}
			p0 := time.Now()
			crSets[i], _ = DeriveOrderKCR(tree, objs[i], objs, domain, k, opts.RegionSamples, w.sc)
			w.prune += time.Since(p0)
			w.sumCR += int64(len(crSets[i]))
		})
	for _, w := range workers {
		stats.PruneDur += w.prune
		stats.SumCR += w.sumCR
	}
	return indexDerived("orderk", store, domain, crSets, k, opts, stats, t0)
}

// PossibleKNN answers the possible-k-NN query at q from an order-k
// index: the IDs of every object with non-zero probability of being
// among the k nearest neighbors of q, sorted ascending.
//
// The leaf candidate list suffices for an exact answer: if an object
// has fewer than k sure excluders globally it is itself a possible
// k-NN, and the k objects with smallest distmax are always possible
// k-NNs, so both the potential answers and enough blockers to reject
// every non-answer appear in the leaf list.
func (ix *UVIndex) PossibleKNN(q geom.Point) ([]int32, QueryStats, error) {
	var st QueryStats
	t0 := time.Now()
	tuples, _, depth, ios, err := ix.leafAt(q)
	if err != nil {
		return nil, st, err
	}
	st.Depth = depth
	st.IndexIOs = ios
	st.LeafEntries = len(tuples)

	// Possible-k-NN predicate over the candidates.
	maxes := make([]float64, len(tuples))
	mins := make([]float64, len(tuples))
	for i, t := range tuples {
		d := q.Dist(geom.Pt(t.CX, t.CY))
		maxes[i] = d + t.R
		mins[i] = math.Max(0, d-t.R)
	}
	var ids []int32
	for _, i := range prob.KNNAnswerSetDists(nil, mins, maxes, ix.orderK) {
		ids = append(ids, tuples[i].ID)
	}
	slices.Sort(ids)
	st.Candidates = len(ids)
	st.TraverseDur = time.Since(t0)
	return ids, st, nil
}
