package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Strategy selects how the per-object constraint sets fed to the index
// are obtained (Section VI-B.3).
type Strategy int

const (
	// StrategyIC (the paper's recommendation): I- and C-pruning produce
	// cr-objects that go straight into the index.
	StrategyIC Strategy = iota
	// StrategyICR: like IC but refines cr-objects to exact r-objects
	// first.
	StrategyICR
	// StrategyBasic: Algorithm 1 — exact UV-cells against every other
	// object, no pruning. Exponentially more expensive; used only as
	// the baseline of Figure 7(a).
	StrategyBasic
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyIC:
		return "IC"
	case StrategyICR:
		return "ICR"
	case StrategyBasic:
		return "Basic"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// BuildOptions configure index construction.
type BuildOptions struct {
	Strategy      Strategy
	Index         IndexOptions
	SeedK         int // k of the seed k-NN query (paper: 300)
	SeedSectors   int // ks sectors (paper: 8)
	RegionSamples int // angular resolution for pruning bounds and hulls
	CellSamples   int // angular resolution for exact cells (ICR/Basic)
	Fanout        int // fanout of the helper R-tree
	// Workers parallelizes the per-object derivation phase (seeds,
	// pruning, refinement) across goroutines; results are identical to
	// a sequential build. 0 or 1 means sequential — the paper's
	// single-threaded setting, which the timing figures assume.
	// (uvdiagram.Build maps its own 0 to GOMAXPROCS before calling in.)
	Workers int
	// DisableCPrune skips computational-level pruning (Lemma 3), keeping
	// every I-pruning survivor as a cr-object. Ablation knob: isolates
	// the contribution of each pruning level (Figure 7(b)).
	DisableCPrune bool
}

// DefaultBuildOptions mirrors Section VI-A.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		Strategy:      StrategyIC,
		Index:         DefaultIndexOptions(),
		SeedK:         DefaultSeedK,
		SeedSectors:   DefaultSeedSectors,
		RegionSamples: 256,
		CellSamples:   DefaultCellSamples,
		Fanout:        rtree.DefaultFanout,
	}
}

func (o *BuildOptions) normalize() {
	if o.SeedK <= 0 {
		o.SeedK = DefaultSeedK
	}
	if o.SeedSectors <= 0 {
		o.SeedSectors = DefaultSeedSectors
	}
	if o.RegionSamples <= 0 {
		o.RegionSamples = 256
	}
	if o.CellSamples <= 0 {
		o.CellSamples = DefaultCellSamples
	}
	if o.Fanout <= 0 {
		o.Fanout = rtree.DefaultFanout
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	o.Index.normalize()
}

// BuildStats records construction cost and its components, matching the
// breakdowns of Figures 7(b), 7(d) and 7(e). With Workers > 1 the
// derivation phases are summed across workers, while TotalDur remains
// wall clock. SeedDur includes each derivation group's shared neighbor
// walk (the list then also serves most I-pruning ranges, which PruneDur
// charges per object). IndexDur is a sum of wall clocks too: a sharded
// engine writes its shards concurrently and adds up their passes, so it
// is neither CPU time nor elapsed time — at n = 8 000 with 4 shards on
// 2 vCPUs it read 51–91 ms against 26–32 ms of elapsed write pass.
type BuildStats struct {
	Strategy Strategy
	N        int
	// Workers is the derivation goroutine count the phase durations
	// were summed over (0 on an opened database: nothing was derived).
	Workers int

	SeedDur   time.Duration // initPossibleRegion (seeds + initial region)
	PruneDur  time.Duration // I- and C-pruning
	RefineDur time.Duration // exact-cell generation (ICR/Basic)
	IndexDur  time.Duration // Algorithm 3 inserts + page writes (per-shard wall clocks, summed)
	TotalDur  time.Duration

	SumI  int64 // Σ |I| over objects (I-pruning survivors)
	SumCR int64 // Σ |Ci|
	SumR  int64 // Σ |Fi| (ICR/Basic only)

	Index IndexStats
}

// String summarizes the build for logs: strategy, size, the phase
// breakdown and the pruning outcome.
func (s BuildStats) String() string {
	return fmt.Sprintf("build[%s]: n=%d workers=%d total=%v (seed %v, prune %v, refine %v, index %v), avg|CR|=%.1f, pruned %.1f%%",
		s.Strategy, s.N, s.Workers, s.TotalDur.Round(time.Millisecond),
		s.SeedDur.Round(time.Millisecond), s.PruneDur.Round(time.Millisecond),
		s.RefineDur.Round(time.Millisecond), s.IndexDur.Round(time.Millisecond),
		s.AvgCR(), 100*s.CPruneRatio())
}

// IPruneRatio is the pruning ratio pc of I-pruning: the average
// fraction of the other n−1 objects eliminated.
func (s BuildStats) IPruneRatio() float64 { return s.ratio(s.SumI) }

// CPruneRatio is the pruning ratio after C-pruning (i.e. of the final
// cr-sets).
func (s BuildStats) CPruneRatio() float64 { return s.ratio(s.SumCR) }

func (s BuildStats) ratio(sum int64) float64 {
	if s.N <= 1 {
		return 0
	}
	return 1 - float64(sum)/float64(s.N)/float64(s.N-1)
}

// AvgCR returns the mean cr-set size.
func (s BuildStats) AvgCR() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.SumCR) / float64(s.N)
}

// AvgR returns the mean r-set size (ICR/Basic).
func (s BuildStats) AvgR() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.SumR) / float64(s.N)
}

// deriveStats are the per-object counters accumulated by one worker.
type deriveStats struct {
	seed, prune, refine time.Duration
	sumI, sumCR, sumR   int64
}

func (d *deriveStats) add(o deriveStats) {
	d.seed += o.seed
	d.prune += o.prune
	d.refine += o.refine
	d.sumI += o.sumI
	d.sumCR += o.sumCR
	d.sumR += o.sumR
}

// builder is one derivation worker of a construction run: the shared
// read-only inputs plus the worker's private scratch and counters.
// objs is the store's DENSE slice (positions are ids); tombstoned slots
// are skipped via alive, so a build over a store with deletions is
// exactly a fresh build over the survivors.
type builder struct {
	objs   []uncertain.Object
	alive  func(int32) bool
	domain geom.Rect
	tree   *rtree.Tree
	opts   BuildOptions
	// sc is the worker's private derivation scratch: every per-object
	// buffer (NN browse heap, seeds, pruning ids, hull, region radius
	// profiles) is reused across the worker's whole object stream, so
	// steady-state derivation allocates only the retained cr-sets.
	sc    *DeriveScratch
	group seedGroup // the current group's shared list
	total deriveStats
}

// deriveGroup derives every member of one group (see leafGroups) into
// crSets. Under the pruning strategies the members share one neighbor
// list, collected by one walk of the helper R-tree and charged to the
// seed phase.
func (b *builder) deriveGroup(members []int32, crSets [][]int32) {
	var g *seedGroup
	if b.opts.Strategy != StrategyBasic {
		ts := time.Now()
		if b.group.collect(b.tree, b.objs, members) {
			g = &b.group
		}
		b.total.seed += time.Since(ts)
	}
	for _, id := range members {
		crSets[id] = b.deriveOne(int(id), g)
	}
}

// deriveOne computes object i's cell representation (cr- or r-object
// ids) according to the strategy; g is its group's list, if any.
func (b *builder) deriveOne(i int, g *seedGroup) []int32 {
	oi := b.objs[i]
	var ids []int32
	switch b.opts.Strategy {
	case StrategyBasic:
		ids = b.sc.ids[:0]
		for j := range b.objs {
			if j != i && b.alive(int32(j)) {
				ids = append(ids, int32(j))
			}
		}
		b.sc.ids = ids
	case StrategyICR, StrategyIC:
		cr, ds, _ := deriveCR(b.tree, g, oi, b.objs, b.domain, b.opts.SeedK, b.opts.SeedSectors, b.opts.RegionSamples, b.opts.DisableCPrune, b.sc)
		b.total.add(ds)
		if b.opts.Strategy == StrategyIC {
			return cr
		}
		ids = cr
	default:
		panic(fmt.Sprintf("core: unknown strategy %v", b.opts.Strategy))
	}
	// Exact cell against ids: every other object for Basic (Algorithm
	// 1), the cr-objects for ICR.
	tr := time.Now()
	region := &b.sc.refine
	region.Reset(oi.Region.C, b.domain)
	for _, id := range ids {
		region.AddObject(oi, b.objs[id])
	}
	cell := region.Cell(oi.ID, b.opts.CellSamples)
	b.total.refine += time.Since(tr)
	b.total.sumR += int64(len(cell.RObjects))
	return cell.RObjects
}

// Build constructs the UV-index over the store's objects with the given
// strategy. tree is the R-tree over the uncertain objects used by the
// pruning steps; if nil, one is bulk-loaded first (the paper likewise
// assumes the R-tree "is available for use" and does not charge it to
// construction time).
func Build(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, opts BuildOptions) (*UVIndex, BuildStats, error) {
	t0 := time.Now()
	crSets, stats, err := DeriveCRSets(store, domain, tree, opts)
	if err != nil {
		return nil, stats, err
	}
	return indexDerived("uv", store, domain, crSets, 1, opts, stats, t0)
}

// indexDerived is the tail Build and BuildOrderK share: index the
// derived sets at the given cell order in one write pass and complete
// the stats.
func indexDerived(engine string, store *uncertain.Store, domain geom.Rect, crSets [][]int32, order int, opts BuildOptions, stats BuildStats, t0 time.Time) (*UVIndex, BuildStats, error) {
	opts.normalize()
	var ix *UVIndex
	var err error
	pprof.Do(context.Background(), pprof.Labels("engine", engine, "stage", "index"), func(context.Context) {
		ix, stats.IndexDur, err = BuildRegionCR(store, domain, NewCRState(crSets), order, opts.Index)
	})
	if err != nil {
		return nil, stats, err
	}
	stats.TotalDur = time.Since(t0)
	stats.Index = ix.Stats()
	return ix, stats, nil
}

// DeriveCRSets runs the per-object derivation phase of construction
// (seeds, I-/C-pruning, optional refinement) over every live object and
// returns the constraint sets, indexed by dense id (dead slots stay
// nil). The sets are independent of any index region, so a spatially
// sharded engine derives them once and feeds them to one BuildRegionCR
// call per shard. The returned stats carry the derivation components;
// the caller fills in IndexDur/TotalDur/Index after indexing.
func DeriveCRSets(store *uncertain.Store, domain geom.Rect, tree *rtree.Tree, opts BuildOptions) ([][]int32, BuildStats, error) {
	opts.normalize()
	// The dense slice keeps position == id; tombstoned slots are skipped
	// everywhere, so this is a fresh derivation over the survivors.
	objs := store.Dense()
	stats := BuildStats{Strategy: opts.Strategy, N: store.Live(), Workers: opts.Workers}
	for i, o := range objs {
		if !store.Alive(int32(i)) {
			continue
		}
		if !domain.Contains(o.Region.C) {
			return nil, stats, fmt.Errorf("core: object %d center %v outside domain %v", o.ID, o.Region.C, domain)
		}
	}
	// The R-tree's simulated-disk reads during construction are the
	// paper's "assumed available" index. Its readers are stateless and
	// the pager's read path is lock-free, so every worker browses the
	// one tree.
	if tree == nil && opts.Strategy != StrategyBasic {
		tree = BuildHelperRTree(store, opts.Fanout)
	}
	crSets := make([][]int32, len(objs))
	groups := leafGroups(tree, len(objs), store.Alive)
	workers := derive.Each(len(groups), opts.Workers, pprof.Labels("engine", "uv", "stage", "derive"),
		func() *builder {
			return &builder{objs: objs, alive: store.Alive, domain: domain, tree: tree, opts: opts, sc: NewDeriveScratch()}
		},
		func(b *builder, u int) { b.deriveGroup(groups[u], crSets) })
	var total deriveStats
	for _, b := range workers {
		total.add(b.total)
	}
	stats.SeedDur, stats.PruneDur, stats.RefineDur = total.seed, total.prune, total.refine
	stats.SumI, stats.SumCR, stats.SumR = total.sumI, total.sumCR, total.sumR
	return crSets, stats, nil
}

// leafGroups partitions the live ids in [0, n) into derivation groups:
// the live items of each helper-R-tree leaf (nil tree: none), then one
// singleton per live id the tree does not hold. A leaf is a compact
// cluster of about a fanout's worth of objects, which is what lets its
// members share their searches.
func leafGroups(tree *rtree.Tree, n int, alive func(int32) bool) [][]int32 {
	var groups [][]int32
	seen := make([]bool, n)
	if tree != nil {
		for _, ids := range tree.LeafIDs() {
			kept := ids[:0]
			for _, id := range ids {
				if id >= 0 && int(id) < n && !seen[id] && alive(id) {
					seen[id] = true
					kept = append(kept, id)
				}
			}
			if len(kept) > 0 {
				groups = append(groups, kept)
			}
		}
	}
	for i := range n {
		if !seen[i] && alive(int32(i)) {
			groups = append(groups, []int32{int32(i)})
		}
	}
	return groups
}

// BuildRegionCR constructs a UV-index of the given cell order (1 = the
// paper's UV-diagram) over region — the whole domain, or one spatial
// shard of it — from the constraint registry cr, which the shards of
// one engine share. The build is one write pass over an empty root: it
// inserts every live object in id order (Algorithm 3, the same
// agrid pass a live insert runs) and publishes the tree once, with Slack
// and Gen left at 0. An object whose UV-cell cannot reach region is
// dropped by the root-level overlap test and contributes no leaf
// entries, while its registry entry still lets incremental deletes find
// every dependent whose cell might later grow into the region. The
// registry is only read, so concurrent BuildRegionCR calls for disjoint
// shards may feed off one derivation pass. The duration returned is the
// pass's wall clock. It fails only on a page size no leaf page fits.
func BuildRegionCR(store *uncertain.Store, region geom.Rect, cr *CRState, order int, opts IndexOptions) (*UVIndex, time.Duration, error) {
	t0 := time.Now()
	ix, err := newIndex(store, region, opts, cr, order, nil)
	if err != nil {
		return nil, 0, err
	}
	p, root := ix.g.Begin()
	for i := 0; i < cr.Len(); i++ {
		if store.Alive(int32(i)) {
			root = p.Insert(int32(i), root)
		}
	}
	p.Install(root)
	return ix, time.Since(t0), nil
}

// ReindexCR rebuilds a fresh index over the same domain,
// options and cell order from the given registry. Open's legacy reader
// uses it when a shard's stream carried a registry copy that diverged
// from the engine-wide one (pre-shared-registry snapshots), so the
// rebuilt leaf lists are consistent with the registry the engine will
// maintain.
func (ix *UVIndex) ReindexCR(cr *CRState) (*UVIndex, error) {
	nx, _, err := BuildRegionCR(ix.store, ix.Domain(), cr, ix.orderK, ix.opts)
	return nx, err
}

// BuildHelperRTree bulk-loads the R-tree over the LIVE uncertain
// objects; both the pruning steps and the query-time baseline use it.
func BuildHelperRTree(store *uncertain.Store, fanout int) *rtree.Tree {
	objs := store.All() // live objects only
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(o.ID)}
	}
	return rtree.BulkLoad(items, fanout, pager.New(pager.DefaultPageSize))
}
