package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
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
	return p.radiusDirKWith(dir, k, nil)
}

// radiusDirKWith is RadiusDirK through a caller-owned k-smallest buffer
// (nil allocates one), so a derivation worker's angular sweeps reuse a
// single insertion-sort buffer. The arithmetic — and hence the result —
// is exactly RadiusDirK's.
func (p *PossibleRegion) radiusDirKWith(dir geom.Point, k int, kth []float64) float64 {
	dom, _ := p.domainBound(dir)
	if k <= 1 {
		r, _ := p.RadiusDir(dir)
		return r
	}
	// Keep the k smallest bounds seen so far in an insertion-sorted
	// buffer; kth[k-1] is the k-th smallest once full.
	if cap(kth) < k {
		kth = make([]float64, 0, k)
	}
	kth = kth[:0]
	for i := range p.cons {
		t, ok := p.cons[i].Edge.RadialBound(dir)
		if !ok {
			continue
		}
		if len(kth) < k {
			kth = append(kth, t)
			for j := len(kth) - 1; j > 0 && kth[j] < kth[j-1]; j-- {
				kth[j], kth[j-1] = kth[j-1], kth[j]
			}
		} else if t < kth[k-1] {
			kth[k-1] = t
			for j := k - 1; j > 0 && kth[j] < kth[j-1]; j-- {
				kth[j], kth[j-1] = kth[j-1], kth[j]
			}
		}
	}
	if len(kth) < k {
		return dom
	}
	return math.Min(dom, kth[k-1])
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
	best := 0.0
	for i, v := range vals {
		if v > best {
			best = v
		}
		prev := vals[(i+samples-1)%samples]
		next := vals[(i+1)%samples]
		if v >= prev && v >= next {
			lo := 2 * math.Pi * float64(i-1) / float64(samples)
			hi := 2 * math.Pi * float64(i+1) / float64(samples)
			if r := goldenMaxPhi(eval, lo, hi, 40); r > best {
				best = r
			}
		}
	}
	return best * (1 + 1e-6)
}

// beginOrderK starts one DeriveOrderKCR call through the scratch: it
// (re)builds the sweep direction ring if the resolution changed,
// refreshes the per-angle domain bounds for the new center (pure per
// direction, shared by every fixpoint round), invalidates the bound
// cache by bumping the generation stamp, and sizes the sweep buffers.
func (sc *DeriveScratch) beginOrderK(pr *PossibleRegion, samples, k, n int) {
	if len(sc.kDirs) != samples {
		sc.kDirs = make([]geom.Point, samples)
		sc.kDom = make([]float64, samples)
		for i := range sc.kDirs {
			sc.kDirs[i] = geom.PolarUnit(2 * math.Pi * float64(i) / float64(samples))
		}
	}
	for i, dir := range sc.kDirs {
		sc.kDom[i], _ = pr.domainBound(dir)
	}
	if len(sc.kRowIdx) < n {
		sc.kRowIdx = make([]int32, n)
		sc.kRowGen = make([]uint32, n)
		sc.kGen = 0
	}
	sc.kGen++
	if sc.kGen == 0 { // generation counter wrapped: drop every stamp
		for i := range sc.kRowGen {
			sc.kRowGen[i] = 0
		}
		sc.kGen = 1
	}
	sc.kUsed = 0
	if cap(sc.kvals) < samples {
		sc.kvals = make([]float64, samples)
	}
	if cap(sc.kth) < k {
		sc.kth = make([]float64, 0, k)
	}
}

// kRowFor returns the cached bound row of candidate oj against the
// current object, building the constraint and evaluating its radial
// bounds over the sweep ring on first touch. A negative index means the
// uncertainty regions overlap (no edge, nothing to fold).
func (sc *DeriveScratch) kRowFor(oi, oj uncertain.Object) int32 {
	j := oj.ID
	if sc.kRowGen[j] == sc.kGen {
		return sc.kRowIdx[j]
	}
	sc.kRowGen[j] = sc.kGen
	c, ok := NewConstraint(oi, oj)
	if !ok {
		sc.kRowIdx[j] = -1
		return -1
	}
	if sc.kUsed == len(sc.kRows) {
		sc.kRows = append(sc.kRows, make([]float64, len(sc.kDirs)))
		sc.kEdges = append(sc.kEdges, Constraint{})
		sc.kEval = append(sc.kEval, kEdgeEval{})
	}
	row := sc.kRows[sc.kUsed]
	if cap(row) < len(sc.kDirs) {
		row = make([]float64, len(sc.kDirs))
	}
	row = row[:len(sc.kDirs)]
	// RadialBound with its pure per-edge subexpressions hoisted out of
	// the per-angle loop (see kEdgeEval): the remaining arithmetic is
	// operation-for-operation RadialBound's, so every row value is
	// bitwise identical.
	ev := kEdgeEval{w: c.Edge.Fi.Sub(c.Edge.Fj), s: c.Edge.S}
	ev.num = ev.s*ev.s - ev.w.NormSq()
	inf := math.Inf(1)
	for i, dir := range sc.kDirs {
		if den := ev.w.Dot(dir) + ev.s; den < 0 {
			row[i] = ev.num / (2 * den)
		} else {
			row[i] = inf
		}
	}
	sc.kRows[sc.kUsed] = row
	sc.kEdges[sc.kUsed] = c
	sc.kEval[sc.kUsed] = ev
	sc.kRowIdx[j] = int32(sc.kUsed)
	sc.kUsed++
	return sc.kRowIdx[j]
}

// orderKRadiusFast evaluates the order-k radial function at angle phi
// over the active rows' reduced edge forms — RadiusDirK's exact
// arithmetic (domain bound, then the k-th smallest existing constraint
// bound, folded in constraint order) with the per-edge subexpressions
// precomputed — so the value is bitwise identical to pr.RadiusK(phi, k)
// with pr holding the active constraints.
func (sc *DeriveScratch) orderKRadiusFast(pr *PossibleRegion, phi float64, k int) float64 {
	dir := geom.PolarUnit(phi)
	dom, _ := pr.domainBound(dir)
	if k <= 1 {
		r := dom
		for _, idx := range sc.kAct {
			ev := &sc.kEval[idx]
			den := ev.w.Dot(dir) + ev.s
			if den >= 0 {
				continue
			}
			if t := ev.num / (2 * den); t < r {
				r = t
			}
		}
		return r
	}
	kth := sc.kth[:0]
	for _, idx := range sc.kAct {
		ev := &sc.kEval[idx]
		den := ev.w.Dot(dir) + ev.s
		if den >= 0 {
			continue
		}
		t := ev.num / (2 * den)
		if len(kth) < k {
			kth = append(kth, t)
			for j := len(kth) - 1; j > 0 && kth[j] < kth[j-1]; j-- {
				kth[j], kth[j-1] = kth[j-1], kth[j]
			}
		} else if t < kth[k-1] {
			kth[k-1] = t
			for j := k - 1; j > 0 && kth[j] < kth[j-1]; j-- {
				kth[j], kth[j-1] = kth[j-1], kth[j]
			}
		}
	}
	if len(kth) < k {
		return dom
	}
	return math.Min(dom, kth[k-1])
}

// goldenMaxPhiKFast is goldenMaxPhiK over the reduced edge forms — the
// same golden-section schedule and evaluation order, each probe through
// orderKRadiusFast — so the polish is bitwise identical to the
// reference's while paying only the direction-dependent arithmetic.
func (sc *DeriveScratch) goldenMaxPhiKFast(pr *PossibleRegion, k int, lo, hi float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1 := sc.orderKRadiusFast(pr, x1, k)
	f2 := sc.orderKRadiusFast(pr, x2, k)
	best := math.Max(f1, f2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = sc.orderKRadiusFast(pr, x2, k)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = sc.orderKRadiusFast(pr, x1, k)
		}
		if v := math.Max(f1, f2); v > best {
			best = v
		}
	}
	return best
}

// orderKMax is MaxRadiusK over the scratch's cached bound rows: per
// sweep angle it takes the k-th smallest of the active rows' bounds
// against the cached domain bound (+Inf rows land behind every finite
// bound, so the order statistic is the value RadiusDirK computes), then
// polishes each local maximum with the same golden-section schedule,
// probing arbitrary angles through the reduced edge forms. The result
// is bitwise identical to pr.MaxRadiusK(len(sc.kDirs), k) with pr
// holding the active constraints.
func (sc *DeriveScratch) orderKMax(pr *PossibleRegion, k int) float64 {
	samples := len(sc.kDirs)
	vals := sc.kvals[:samples]
	for i := range vals {
		dom := sc.kDom[i]
		if k <= 1 {
			r := dom
			for _, idx := range sc.kAct {
				if t := sc.kRows[idx][i]; t < r {
					r = t
				}
			}
			vals[i] = r
			continue
		}
		kth := sc.kth[:0]
		for _, idx := range sc.kAct {
			t := sc.kRows[idx][i]
			if len(kth) < k {
				kth = append(kth, t)
				for j := len(kth) - 1; j > 0 && kth[j] < kth[j-1]; j-- {
					kth[j], kth[j-1] = kth[j-1], kth[j]
				}
			} else if t < kth[k-1] {
				kth[k-1] = t
				for j := k - 1; j > 0 && kth[j] < kth[j-1]; j-- {
					kth[j], kth[j-1] = kth[j-1], kth[j]
				}
			}
		}
		if len(kth) < k {
			vals[i] = dom
		} else {
			vals[i] = math.Min(dom, kth[k-1])
		}
	}
	best := 0.0
	for i, v := range vals {
		if v > best {
			best = v
		}
		prev := vals[(i+samples-1)%samples]
		next := vals[(i+1)%samples]
		if v >= prev && v >= next {
			lo := 2 * math.Pi * float64(i-1) / float64(samples)
			hi := 2 * math.Pi * float64(i+1) / float64(samples)
			if r := sc.goldenMaxPhiKFast(pr, k, lo, hi, 40); r > best {
				best = r
			}
		}
	}
	return best * (1 + 1e-6)
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

// goldenMaxPhi maximizes f on [lo, hi] by golden-section search,
// returning the best value seen.
func goldenMaxPhi(f func(float64) float64, lo, hi float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	best := math.Max(f1, f2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
		if v := math.Max(f1, f2); v > best {
			best = v
		}
	}
	return best
}

// DeriveOrderKCR derives the candidate reference objects of Oi's
// ORDER-k cell by iterating the I-pruning filter (Lemma 2, which is
// order-independent: a constraint whose center lies outside
// Cir(ci, 2d−ri), d the region's max radius, cannot intersect the
// region and so can neither exclude points from it nor count toward
// any point's k excluders). A seed phase first bounds the region with
// the ~8(k+1) nearest neighbors — the order-k analogue of the paper's
// sectored seeds: the k-th smallest radial bound needs at least k
// crossings per direction before it leaves the domain scale. Seeding
// is sound because a region built from fewer constraints is a
// superset, so its max radius is a valid d for the first round; the
// candidate set and radius then shrink monotonically to a fixpoint.
//
// The returned region carries the surviving constraints; the returned
// ids are the order-k cr-objects fed to the index.
//
// The derivation runs through sc's reusable buffers (NN-browse heap,
// region with its constraint storage, candidate and sweep buffers, the
// cross-round bound cache), so a long-lived scratch makes steady-state
// derivation allocate only the returned cr-set — and the cache means
// each candidate's sweep bounds are evaluated once per derive call
// instead of once per fixpoint round. A nil sc uses a private one. The
// returned region is OWNED BY THE SCRATCH and is only valid until its
// next use; the cr-set is freshly allocated and safe to retain. Results
// are bitwise identical to DeriveOrderKCRReference.
func DeriveOrderKCR(tree *rtree.Tree, oi uncertain.Object, objs []uncertain.Object, domain geom.Rect, k, samples int, sc *DeriveScratch) ([]int32, *PossibleRegion) {
	if sc == nil {
		sc = NewDeriveScratch()
	}
	if samples < 8 {
		samples = 8 // MaxRadiusK's clamp, applied once up front
	}
	pr := &sc.region
	pr.Reset(oi.Region.C, domain)
	sc.beginOrderK(pr, samples, k, len(objs))
	// Seed phase: the lazy NN browse pops the exact prefix the eager
	// KNN(c, 8(k+1)) materializes, without building the neighbor slice.
	sc.kAct = sc.kAct[:0]
	if tree != nil {
		sc.it.Reset(tree, oi.Region.C)
		for pulled := 0; pulled < 8*(k+1); pulled++ {
			nb, ok := sc.it.Next()
			if !ok {
				break
			}
			if nb.Item.ID != oi.ID {
				if idx := sc.kRowFor(oi, objs[nb.Item.ID]); idx >= 0 {
					pr.cons = append(pr.cons, sc.kEdges[idx])
					sc.kAct = append(sc.kAct, idx)
				}
			}
		}
	}
	d := sc.orderKMax(pr, k)
	sc.cands = sc.cands[:0]
	for iter := 0; iter < 8; iter++ {
		radius := 2*d - oi.Region.R
		if radius <= 0 {
			radius = d
		}
		cands := sc.cands[:0]
		if tree != nil {
			tree.CenterRangeFunc(geom.Circle{C: oi.Region.C, R: radius}, func(it rtree.Item) {
				if it.ID != oi.ID {
					cands = append(cands, it.ID)
				}
			})
		} else {
			for j := range objs {
				if objs[j].ID != oi.ID && objs[j].Region.C.Dist(oi.Region.C) <= radius {
					cands = append(cands, objs[j].ID)
				}
			}
		}
		// The ids are unique, so ascending order is canonical: identical
		// to the reference's sort regardless of collection order.
		slices.Sort(cands)
		sc.cands = cands
		// Rebuild the round's region from cached constraints (the
		// constructor is pure, so these are the exact constraints the
		// reference's AddObject loop produces, in the same order).
		pr.Reset(oi.Region.C, domain)
		sc.kAct = sc.kAct[:0]
		for _, j := range cands {
			if idx := sc.kRowFor(oi, objs[j]); idx >= 0 {
				pr.cons = append(pr.cons, sc.kEdges[idx])
				sc.kAct = append(sc.kAct, idx)
			}
		}
		d2 := sc.orderKMax(pr, k)
		if d2 >= d*(1-1e-9) {
			break
		}
		d = d2
	}
	if len(sc.cands) == 0 {
		return nil, pr
	}
	ids := make([]int32, len(sc.cands))
	copy(ids, sc.cands)
	return ids, pr
}

// DeriveOrderKCRSets runs the order-k derivation over every live object
// and returns the cr-sets indexed by dense id (dead slots stay nil) —
// the order-k analogue of DeriveCRSets, and like it Workers-parallel
// over a shared work queue with per-worker scratch arenas and private
// R-tree clones (the tree pager is not concurrency-safe). The sets are
// independent of any index region, so a sharded engine can derive once
// and feed BuildOrderKRegion per shard. The caller fills in
// IndexDur/TotalDur/Index after indexing.
func DeriveOrderKCRSets(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, k int, opts BuildOptions) ([][]int32, BuildStats, error) {
	if k < 1 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK needs k ≥ 1, got %d", k)
	}
	if store.Live() == 0 {
		return nil, BuildStats{}, fmt.Errorf("core: BuildOrderK over empty store")
	}
	opts.normalize()
	stats := BuildStats{Strategy: opts.Strategy, N: store.Live()}
	objs := store.Dense() // position == id; tombstoned slots skipped
	crSets := make([][]int32, len(objs))

	if opts.Workers > 1 {
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			prune  time.Duration
			sumCR  int64
			next   = make(chan int)
			labels = pprof.Labels("engine", "orderk", "stage", "derive")
		)
		for w := 0; w < opts.Workers; w++ {
			wtree := tree
			if wtree != nil && w > 0 {
				wtree = BuildHelperRTree(store, opts.Fanout)
			}
			wg.Add(1)
			go func(wtree *rtree.Tree) {
				defer wg.Done()
				pprof.Do(context.Background(), labels, func(context.Context) {
					sc := NewDeriveScratch()
					var localDur time.Duration
					var localCR int64
					for i := range next {
						p0 := time.Now()
						ids, _ := DeriveOrderKCR(wtree, objs[i], objs, domain, k, opts.RegionSamples, sc)
						localDur += time.Since(p0)
						localCR += int64(len(ids))
						crSets[i] = ids
					}
					mu.Lock()
					prune += localDur
					sumCR += localCR
					mu.Unlock()
				})
			}(wtree)
		}
		for i := range objs {
			if store.Alive(int32(i)) {
				next <- i
			}
		}
		close(next)
		wg.Wait()
		stats.PruneDur, stats.SumCR = prune, sumCR
	} else {
		pprof.Do(context.Background(), pprof.Labels("engine", "orderk", "stage", "derive"), func(context.Context) {
			sc := NewDeriveScratch()
			for i := range objs {
				if !store.Alive(int32(i)) {
					continue
				}
				p0 := time.Now()
				ids, _ := DeriveOrderKCR(tree, objs[i], objs, domain, k, opts.RegionSamples, sc)
				stats.PruneDur += time.Since(p0)
				stats.SumCR += int64(len(ids))
				crSets[i] = ids
			}
		})
	}
	return crSets, stats, nil
}

// BuildOrderK constructs an order-k UV-index over the store: an
// adaptive grid whose leaves list every object whose order-k cell
// overlaps the leaf region. PossibleKNN answers exactly against it.
// Derivation runs on the Workers-parallel fast path; insertion is
// sequential (the grid is not concurrency-safe). The index — leaf
// lists, stats and query answers — is bitwise identical to
// BuildOrderKReference's at every worker count.
func BuildOrderK(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, k int, opts BuildOptions) (*UVIndex, BuildStats, error) {
	t0 := time.Now()
	crSets, stats, err := DeriveOrderKCRSets(store, domain, tree, k, opts)
	if err != nil {
		return nil, stats, err
	}
	opts.normalize()
	var ix *UVIndex
	var indexDur time.Duration
	pprof.Do(context.Background(), pprof.Labels("engine", "orderk", "stage", "index"), func(context.Context) {
		ix, indexDur = BuildOrderKRegion(store, domain, crSets, k, opts.Index)
	})
	stats.IndexDur = indexDur
	stats.TotalDur = time.Since(t0)
	stats.Index = ix.Stats()
	return ix, stats, nil
}

// BuildOrderKRegion constructs a finished order-k UV-index over region —
// the whole domain, or one spatial shard of it — from cr-sets derived
// by DeriveOrderKCRSets, recording them in a fresh registry the index
// owns: the order-k counterpart of BuildRegion, so order-k grids can
// later ride the shard layout the same way.
func BuildOrderKRegion(store *uncertain.Store, region geom.Rect, crSets [][]int32, k int, opts IndexOptions) (*UVIndex, time.Duration) {
	return BuildOrderKRegionCR(store, region, NewCRState(crSets), k, opts)
}

// BuildOrderKRegionCR is BuildOrderKRegion over an external constraint
// registry (shared across shards; only read). The cell order must be
// set before insertion — the leaf overlap test counts excluders against
// it — which is why this constructor exists instead of reusing
// BuildRegionCR.
func BuildOrderKRegionCR(store *uncertain.Store, region geom.Rect, cr *CRState, k int, opts IndexOptions) (*UVIndex, time.Duration) {
	ix := NewUVIndexCR(store, region, opts, cr)
	ix.orderK = k
	return ix, ix.fillFromCR()
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
	return ix.possibleKNN(q, nil)
}

// PossibleKNNCached is PossibleKNN with an optional leaf-tuple cache
// (see PNNWith); answers are identical, a nil cache degrades to
// PossibleKNN.
func (ix *UVIndex) PossibleKNNCached(q geom.Point, cache *LeafCache) ([]int32, QueryStats, error) {
	return ix.possibleKNN(q, cache)
}

func (ix *UVIndex) possibleKNN(q geom.Point, cache *LeafCache) ([]int32, QueryStats, error) {
	var st QueryStats
	if !ix.finished {
		return nil, st, fmt.Errorf("core: PossibleKNN before Finish")
	}
	if !ix.domain.Contains(q) {
		return nil, st, fmt.Errorf("core: query point %v outside domain %v", q, ix.domain)
	}

	t0 := time.Now()
	n, depth := ix.descend(q)
	st.Depth = depth
	var tuples []pager.LeafTuple
	if cached, ok := cache.get(ix, n); ok {
		tuples = cached
	} else {
		var err error
		var ios int64
		tuples, ios, err = ix.readLeafTuples(n)
		if err != nil {
			return nil, st, err
		}
		st.IndexIOs += ios
		cache.put(ix, n, tuples)
	}
	st.LeafEntries = len(tuples)

	// Possible-k-NN predicate over the candidates: count sure excluders
	// by binary search over the sorted distmax values.
	maxes := make([]float64, len(tuples))
	mins := make([]float64, len(tuples))
	for i, t := range tuples {
		d := q.Dist(geom.Pt(t.CX, t.CY))
		maxes[i] = d + t.R
		mins[i] = math.Max(0, d-t.R)
	}
	sorted := append([]float64(nil), maxes...)
	sort.Float64s(sorted)

	var ids []int32
	for i := range tuples {
		surelyCloser := sort.SearchFloat64s(sorted, mins[i])
		if surelyCloser <= ix.orderK-1 {
			ids = append(ids, tuples[i].ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	st.Candidates = len(ids)
	st.TraverseDur = time.Since(t0)
	return ids, st, nil
}
