package core3

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"time"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom3"
	"uvdiagram/internal/uncertain3"
)

// seedCount is the number of nearest neighbors used to bound an
// object's possible region before I-pruning (the 3D analogue of the
// paper's ks = 8 sector seeds; more seeds compensate for the extra
// dimension).
const seedCount = 24

// Build3 input validation failures, checkable with errors.Is — the 3D
// counterparts of the root package's typed ErrOutOfDomain.
var (
	// ErrSparseIDs reports objects whose IDs are not dense 0..n−1 (the
	// octree's leaf lists and cr-registry index by position).
	ErrSparseIDs = errors.New("core3: objects must carry dense IDs 0..n-1")
	// ErrOutOfDomain3 reports an object whose center lies outside the
	// domain box; its UV-cell would be clipped to nothing.
	ErrOutOfDomain3 = errors.New("core3: object center outside domain")
)

// Strategy3 names the 3D derivation strategy. Only the paper-
// recommended I-pruning + center-range strategy exists in 3D (C-pruning
// needs the 2D convex-hull machinery); the type mirrors the 2D Strategy
// so build logs read the same for every engine.
type Strategy3 int

// StrategyIC3 is I-pruning over the hash-grid substrate, the only (and
// default) 3D strategy.
const StrategyIC3 Strategy3 = iota

// String implements fmt.Stringer.
func (s Strategy3) String() string {
	if s == StrategyIC3 {
		return "IC"
	}
	return fmt.Sprintf("Strategy3(%d)", int(s))
}

// validate3 checks the build input: dense IDs and in-domain centers.
func validate3(objs []uncertain3.Object3, domain geom3.Box) error {
	if len(objs) == 0 {
		return fmt.Errorf("core3: no objects to index")
	}
	for i := range objs {
		if int(objs[i].ID) != i {
			return fmt.Errorf("%w: object %d has ID %d", ErrSparseIDs, i, objs[i].ID)
		}
		if !domain.Contains(objs[i].Region.C) {
			return fmt.Errorf("%w: object %d center %v, domain %v", ErrOutOfDomain3, i, objs[i].Region.C, domain)
		}
	}
	return nil
}

// seedSorter3 orders seed candidates by center distance. sort.Sort over
// a retained pointer receiver allocates nothing, and Go's sort package
// generates the Interface and func variants of pdqsort from the same
// template, so the comparison/swap sequence — and hence the order of
// distance ties — is exactly sort.Slice's.
type seedSorter3 struct {
	ids  []int32
	objs []uncertain3.Object3
	c    geom3.Point3
}

func (s *seedSorter3) Len() int      { return len(s.ids) }
func (s *seedSorter3) Swap(a, b int) { s.ids[a], s.ids[b] = s.ids[b], s.ids[a] }
func (s *seedSorter3) Less(a, b int) bool {
	return s.objs[s.ids[a]].Region.C.DistSq(s.c) < s.objs[s.ids[b]].Region.C.DistSq(s.c)
}

// nearestSeedsInto returns, in buf's storage, up to m object ids
// nearest to oi's center, found by expanding-ball search on the hash
// grid. Every intermediate ball is collected in ascending id order (the
// grid's canonical order), so the distance sort sees the same input
// whatever the buffers and ties break identically.
func nearestSeedsInto(grid *HashGrid3, oi uncertain3.Object3, objs []uncertain3.Object3, domain geom3.Box, m int, buf []int32, sorter *seedSorter3) []int32 {
	if grid == nil {
		return buf[:0]
	}
	radius := math.Cbrt(domain.Volume()*float64(m)/float64(len(objs)+1)) + oi.Region.R
	maxRadius := domain.MaxDist(oi.Region.C)
	ids := buf
	for {
		ids = grid.CenterRangeInto(geom3.Sphere{C: oi.Region.C, R: radius}, ids)
		w := 0
		for _, id := range ids {
			if id != oi.ID {
				ids[w] = id
				w++
			}
		}
		ids = ids[:w]
		if len(ids) >= m || radius >= maxRadius {
			break
		}
		radius *= 2
	}
	sorter.ids, sorter.objs, sorter.c = ids, objs, oi.Region.C
	sort.Sort(sorter)
	sorter.ids, sorter.objs = nil, nil
	if len(ids) > m {
		ids = ids[:m]
	}
	return ids
}

// DeriveCR3 derives the cr-objects of Oi's 3D UV-cell: a seed phase
// bounds the possible region with the nearest neighbors, then
// derive.Fixpoint iterates the I-pruning filter (Lemma 2's proof is
// dimension-free) from the seed region's radius.
//
// The derivation runs through sc's reusable buffers (seed and candidate
// pools, the cross-round bound table, the region's constraint storage),
// so a long-lived scratch makes steady-state derivation allocate only
// the returned cr-set — and the table means each candidate's
// hyperboloid bounds are evaluated over the lattice once per derive
// call instead of once per fixpoint round. A nil sc uses a private one.
// The returned region is OWNED BY THE SCRATCH and only valid until its
// next use; the cr-set is freshly allocated and safe to retain. Results
// are bitwise identical to DeriveCR3Reference.
func DeriveCR3(grid *HashGrid3, oi uncertain3.Object3, objs []uncertain3.Object3, domain geom3.Box, dirs []geom3.Point3, sc *DeriveScratch3) ([]int32, *PossibleRegion3) {
	if sc == nil {
		sc = NewDeriveScratch3()
	}
	e := &sc.run
	e.begin(grid, oi, objs, domain, dirs)
	sc.seeds = nearestSeedsInto(grid, oi, objs, domain, seedCount, sc.seeds, &sc.sorter)
	d := e.Bound(sc.seeds)
	if dd := domain.MaxDist(oi.Region.C); dd < d {
		d = dd // region ⊆ domain: the corner distance is always valid
	}
	e.cands = derive.Fixpoint(e, d, oi.Region.R, 6, e.cands)
	// Materialize the final round's region once, from cached constraints
	// (the constructor is pure, so these are the exact constraints the
	// reference's per-round AddObject loop ends with).
	pr := &sc.region
	pr.Reset(oi.Region.C, domain)
	for _, idx := range e.tab.Active() {
		pr.cons = append(pr.cons, e.edges[idx])
	}
	return append([]int32(nil), e.cands...), pr // nil when empty
}

// BuildStats3 records 3D construction cost. With Workers > 1 PruneDur
// is summed CPU time across workers, while TotalDur remains wall clock.
type BuildStats3 struct {
	Strategy Strategy3
	N        int
	PruneDur time.Duration
	IndexDur time.Duration
	TotalDur time.Duration
	SumCR    int64
	Index    IndexStats3
}

// String summarizes the build for logs, phrased like the 2D
// BuildStats.String so every engine's build line reads the same.
func (s BuildStats3) String() string {
	return fmt.Sprintf("build3[%s]: n=%d total=%v (prune %v, index %v), avg|CR|=%.1f, pruned %.1f%%",
		s.Strategy, s.N, s.TotalDur.Round(time.Millisecond),
		s.PruneDur.Round(time.Millisecond), s.IndexDur.Round(time.Millisecond),
		s.AvgCR(), 100*s.PruneRatio())
}

// AvgCR returns the mean cr-object count per object.
func (s BuildStats3) AvgCR() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.SumCR) / float64(s.N)
}

// PruneRatio returns the average fraction of the dataset pruned away
// before indexing.
func (s BuildStats3) PruneRatio() float64 {
	if s.N <= 1 {
		return 0
	}
	return 1 - s.AvgCR()/float64(s.N-1)
}

// Build3 constructs the 3D UV-index over the objects: derive each
// object's cr-set through the hash-grid substrate — on the same
// derive.Each driver as the 2D engine, with per-worker scratch arenas;
// the grid and direction lattice are read-only and shared — then index
// them in one write pass over an empty root, as the 2D BuildRegionCR
// does. Objects must carry dense IDs 0..n−1 (ErrSparseIDs) with
// in-domain centers (ErrOutOfDomain3), and a page of opts.PageSize
// bytes must hold 1 to pager.MaxLeafTuples leaf tuples
// (agrid.ErrPageCapacity). The index — leaf lists, stats and query
// answers — is bitwise identical to Build3Reference's at every worker
// count.
func Build3(objs []uncertain3.Object3, domain geom3.Box, opts Options3) (*OctIndex, BuildStats3, error) {
	if err := validate3(objs, domain); err != nil {
		return nil, BuildStats3{}, err
	}
	t0 := time.Now()
	ix, err := newOctIndex(objs, domain, opts)
	if err != nil {
		return nil, BuildStats3{}, err
	}
	opts = ix.opts
	stats := BuildStats3{N: len(objs), Strategy: StrategyIC3}
	grid := NewHashGrid3(objs, domain, 0)
	dirs := geom3.FibonacciSphere(opts.Dirs)
	type worker struct {
		sc    *DeriveScratch3
		prune time.Duration
		sumCR int64
	}
	workers := derive.Each(len(objs), opts.Workers, pprof.Labels("engine", "uv3", "stage", "derive"),
		func() *worker { return &worker{sc: NewDeriveScratch3()} },
		func(w *worker, i int) {
			p0 := time.Now()
			ix.crOf[i], _ = DeriveCR3(grid, objs[i], objs, domain, dirs, w.sc)
			w.prune += time.Since(p0)
			w.sumCR += int64(len(ix.crOf[i]))
		})
	for _, w := range workers {
		stats.PruneDur += w.prune
		stats.SumCR += w.sumCR
	}
	pprof.Do(context.Background(), pprof.Labels("engine", "uv3", "stage", "index"), func(context.Context) {
		i0 := time.Now()
		p, root := ix.g.Begin()
		for i := range objs {
			root = p.Insert(int32(i), root)
		}
		p.Install(root)
		stats.IndexDur = time.Since(i0)
	})
	stats.TotalDur = time.Since(t0)
	stats.Index = ix.Stats()
	return ix, stats, nil
}
