package uvdiagram

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"uvdiagram/internal/core"
)

// Spatial sharding. The adaptive grid of the paper partitions the
// domain naturally, so the engine can split the plane into a gx × gy
// grid of shard rectangles, each owning an independent sub-grid
// UV-index, epoch pointer and slack counter:
//
//   - Point queries route to the owning shard with two boundary scans
//     and read its epoch lock-free.
//   - An object whose UV-cell spans a shard boundary is indexed in
//     every shard it reaches (the root-level 4-point overlap test of
//     Algorithm 5 drops it from the shards it cannot), so each shard's
//     leaf lists stay supersets of the true overlaps and answers are
//     exactly those of a single-shard engine.
//   - The constraint sets of ALL objects live in ONE engine-wide
//     registry (core.CRState) shared by every shard — deleting an
//     object can grow a neighbor's UV-cell ACROSS a boundary into a
//     shard that never listed it, and the registry's reverse cr-map is
//     what finds those dependents — so a mutation updates bookkeeping
//     once, and the per-shard work is exactly the leaf surgery in the
//     shards the cells reach.
//   - The whole layout (cut coordinates + shard states) sits behind one
//     atomic pointer: an online re-shard (DB.Reshard) builds a complete
//     new layout off to the side and publishes it with a single swap,
//     so queries never observe a torn layout.
//   - Maintenance (Compact, Reshard) re-derives the registry once and
//     shadow-builds every shard's sub-grid in parallel, publishing each
//     with one atomic epoch swap.
//
// One shard (the default) reproduces the pre-sharding engine exactly.

// MaxShards bounds Options.Shards (a 16×16 grid is already far past the
// point of diminishing returns for the paper's densities).
const MaxShards = 256

// shard is one spatial partition of the engine: a rectangle of the
// domain and the epoch pointer for the index state owning it. Its leaf
// structure and epoch change only under the DB's store lock held
// exclusively (see the locking notes on DB).
type shard struct {
	rect  Rect
	epoch atomic.Pointer[indexEpoch]
}

// ep returns the shard's current epoch.
func (sh *shard) ep() *indexEpoch { return sh.epoch.Load() }

// shardLayout is one immutable generation of the shard layout: the grid
// shape, the cut coordinates and the shard states. The DB publishes a
// layout with one atomic pointer store (Build, Open, Reshard), so a
// query routing through a loaded layout can never see half-updated
// cuts or a shard slice that does not match them.
type shardLayout struct {
	// gen numbers the layout: it increases by one at every Reshard, so
	// long-lived sessions and order-k snapshots detect that the layout
	// they captured has been replaced even if per-shard counters happen
	// to match.
	gen    uint64
	gx, gy int
	xs, ys []float64
	shards []*shard
}

// newShardLayout lays out a gx × gy shard grid over the given cuts.
func newShardLayout(gen uint64, gx, gy int, xs, ys []float64) *shardLayout {
	lo := &shardLayout{gen: gen, gx: gx, gy: gy, xs: xs, ys: ys, shards: make([]*shard, gx*gy)}
	for r := 0; r < gy; r++ {
		for c := 0; c < gx; c++ {
			lo.shards[r*gx+c] = &shard{rect: Rect{
				Min: Pt(xs[c], ys[r]),
				Max: Pt(xs[c+1], ys[r+1]),
			}}
		}
	}
	return lo
}

// shardIdx returns the index of the shard owning q. Points outside the
// domain clamp to the nearest edge shard.
func (lo *shardLayout) shardIdx(q Point) int {
	return lastLE(lo.ys, q.Y)*lo.gx + lastLE(lo.xs, q.X)
}

// epFor returns the epoch of the shard owning q.
func (lo *shardLayout) epFor(q Point) *indexEpoch { return lo.shards[lo.shardIdx(q)].ep() }

// epAt returns shard i's epoch.
func (lo *shardLayout) epAt(i int) *indexEpoch { return lo.shards[i].ep() }

// epochs snapshots every shard's current epoch in shard order.
func (lo *shardLayout) epochs() []*indexEpoch {
	eps := make([]*indexEpoch, len(lo.shards))
	for i := range lo.shards {
		eps[i] = lo.shards[i].ep()
	}
	return eps
}

// lo returns the DB's current layout.
func (db *DB) lo() *shardLayout { return db.layout.Load() }

// shardGrid factors s into the most square gx × gy grid (gx ≥ gy).
func shardGrid(s int) (gx, gy int) {
	gy = int(math.Sqrt(float64(s)))
	for s%gy != 0 {
		gy--
	}
	return s / gy, gy
}

// cuts returns n+1 boundary coordinates splitting [lo, hi] into n equal
// strips. The end cuts are exactly lo and hi so the strips tile the
// domain with no floating-point drift at the edges.
func cuts(lo, hi float64, n int) []float64 {
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		switch i {
		case 0:
			out[i] = lo
		case n:
			out[i] = hi
		default:
			out[i] = lo + (hi-lo)*float64(i)/float64(n)
		}
	}
	return out
}

// lastLE returns the index i (0 ≤ i ≤ len(cuts)-2) of the last strip
// whose lower cut is ≤ v, clamping out-of-range values to the edge
// strips. Comparing against the SAME cut values the shard rectangles
// were built from guarantees the chosen shard's rectangle contains v,
// with no re-derived arithmetic that could round across a boundary.
func lastLE(cuts []float64, v float64) int {
	for i := len(cuts) - 2; i >= 1; i-- {
		if v >= cuts[i] {
			return i
		}
	}
	return 0
}

// LayoutStrategy decides where a gx × gy shard grid cuts the domain.
// The choice NEVER affects answers — objects are indexed in every shard
// their UV-cell reaches, whatever the cuts — only how evenly load
// spreads across shards. Implementations must return strictly
// increasing cut slices of lengths gx+1 and gy+1 whose end elements are
// exactly the domain bounds.
type LayoutStrategy interface {
	// Name is the strategy's stable identifier ("equal", "median").
	Name() string
	// Cuts computes the x and y cut coordinates for a gx × gy grid over
	// domain, given the live objects' center points (which equal-area
	// strategies may ignore).
	Cuts(domain Rect, gx, gy int, centers []Point) (xs, ys []float64)
}

// EqualStrips is the fixed equal-area layout: every shard column and
// row spans the same extent regardless of where the objects are. It is
// the default, and the layout every pre-adaptive snapshot implies.
type EqualStrips struct{}

// Name implements LayoutStrategy.
func (EqualStrips) Name() string { return "equal" }

// Cuts implements LayoutStrategy.
func (EqualStrips) Cuts(domain Rect, gx, gy int, _ []Point) (xs, ys []float64) {
	return cuts(domain.Min.X, domain.Max.X, gx), cuts(domain.Min.Y, domain.Max.Y, gy)
}

// WeightedMedian cuts each axis at the i/n weighted quantiles of the
// live object-center distribution, so every shard column (and row)
// holds the same number of object centers. On skewed datasets this
// evens per-shard population — and therefore leaf-list load, build
// cost and compaction churn — where equal strips pile most objects
// into a few hot shards. Degenerate distributions (too many identical
// coordinates to separate) fall back to equal strips on that axis.
type WeightedMedian struct{}

// Name implements LayoutStrategy.
func (WeightedMedian) Name() string { return "median" }

// Cuts implements LayoutStrategy.
func (WeightedMedian) Cuts(domain Rect, gx, gy int, centers []Point) (xs, ys []float64) {
	vx := make([]float64, len(centers))
	vy := make([]float64, len(centers))
	for i, c := range centers {
		vx[i] = c.X
		vy[i] = c.Y
	}
	return quantileCuts(domain.Min.X, domain.Max.X, gx, vx),
		quantileCuts(domain.Min.Y, domain.Max.Y, gy, vy)
}

// quantileCuts returns n+1 strictly increasing cuts splitting [lo, hi]
// at the i/n quantiles of the samples, using midpoints between adjacent
// order statistics so no sample sits exactly on a cut more often than
// the data forces. If the sample distribution cannot produce strictly
// increasing cuts (heavy ties, tiny n), it falls back to equal strips —
// always safe, since cuts only steer balance, never correctness.
func quantileCuts(lo, hi float64, n int, samples []float64) []float64 {
	if n <= 1 || len(samples) == 0 {
		return cuts(lo, hi, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := make([]float64, n+1)
	out[0], out[n] = lo, hi
	for i := 1; i < n; i++ {
		k := i * len(s) / n
		switch {
		case k <= 0:
			out[i] = s[0]
		case k >= len(s):
			out[i] = s[len(s)-1]
		default:
			out[i] = (s[k-1] + s[k]) / 2
		}
	}
	for i := 1; i <= n; i++ {
		if !(out[i] > out[i-1]) {
			return cuts(lo, hi, n)
		}
	}
	return out
}

// LayoutByName resolves a strategy name ("equal", "median"; empty means
// equal) — the command-line front ends' flag parser.
func LayoutByName(name string) (LayoutStrategy, error) {
	switch name {
	case "", "equal":
		return EqualStrips{}, nil
	case "median", "weighted-median":
		return WeightedMedian{}, nil
	}
	return nil, fmt.Errorf("uvdiagram: unknown layout strategy %q (equal, median)", name)
}

// liveCenters collects the centers of the live objects (the input to
// adaptive layout strategies).
func (db *DB) liveCenters() []Point {
	objs := db.store.Dense()
	out := make([]Point, 0, db.store.Live())
	for i := range objs {
		if db.store.Alive(int32(i)) {
			out = append(out, objs[i].Region.C)
		}
	}
	return out
}

// Shards returns the number of spatial shards (1 unless the database
// was built or loaded with Options.Shards > 1).
func (db *DB) Shards() int { return len(db.lo().shards) }

// ShardGrid returns the shard layout as grid dimensions (gx columns ×
// gy rows, row-major shard order).
func (db *DB) ShardGrid() (gx, gy int) {
	lo := db.lo()
	return lo.gx, lo.gy
}

// ShardCuts returns copies of the layout's cut coordinates: gx+1
// x-cuts and gy+1 y-cuts, ends equal to the domain bounds. With equal
// strips they are evenly spaced; after a weighted-median Build or a
// Reshard they follow the object distribution.
func (db *DB) ShardCuts() (xs, ys []float64) {
	lo := db.lo()
	return append([]float64(nil), lo.xs...), append([]float64(nil), lo.ys...)
}

// ShardStat describes one shard's live state.
type ShardStat struct {
	// Rect is the shard's region of the domain.
	Rect Rect
	// Live is the number of live objects whose center the shard owns —
	// the load-balance signal Reshard evens out.
	Live int
	// Slack is the leaf-list churn (entry-weighted) accumulated by
	// incremental Insert/Delete traffic that actually touched this
	// shard since its index was last (re)built. It counts churn, not
	// bloat: incremental maintenance keeps the leaf lists close to what
	// Compact would rebuild.
	Slack int64
	// Gen counts the epoch swaps (Compact/Reshard) since Build or Open;
	// every shard of a layout shares it.
	Gen uint64
	// Index is the shape of the shard's sub-grid.
	Index core.IndexStats
}

// ShardStats reports every shard's region, live-object count, slack and
// index shape, in shard order.
func (db *DB) ShardStats() []ShardStat { return db.LayoutSnapshot().Shards }

// LayoutSnapshot is a consistent view of the shard layout and per-shard
// state, all taken from ONE atomic layout load.
type LayoutSnapshot struct {
	// GridX, GridY are the grid dimensions (GridX*GridY shards,
	// row-major).
	GridX, GridY int
	// CutsX, CutsY are copies of the layout's cut coordinates (GridX+1
	// and GridY+1 values, ends equal to the domain bounds).
	CutsX, CutsY []float64
	// Shards is each shard's state in shard order.
	Shards []ShardStat
}

// LayoutSnapshot reports the layout and every shard's state from one
// layout load — callers that combine cuts with per-shard stats (the
// wire Stats opcode) use this so a concurrent Reshard can never hand
// them cuts from one layout and shard states from another.
func (db *DB) LayoutSnapshot() LayoutSnapshot {
	lo := db.lo()
	live := shardLoads(lo, db.store.Dense(), db.store.Alive)
	snap := LayoutSnapshot{
		GridX: lo.gx,
		GridY: lo.gy,
		CutsX: append([]float64(nil), lo.xs...),
		CutsY: append([]float64(nil), lo.ys...),
	}
	snap.Shards = make([]ShardStat, len(lo.shards))
	for i := range lo.shards {
		ep := lo.shards[i].ep()
		snap.Shards[i] = ShardStat{
			Rect:  lo.shards[i].rect,
			Live:  live[i],
			Slack: ep.index.Slack(),
			Gen:   ep.gen,
			Index: ep.index.Stats(),
		}
	}
	return snap
}

// shardLoads counts live object centers per owning shard.
func shardLoads(lo *shardLayout, objs []Object, alive func(int32) bool) []int {
	loads := make([]int, len(lo.shards))
	for i := range objs {
		if alive(int32(i)) {
			loads[lo.shardIdx(objs[i].Region.C)]++
		}
	}
	return loads
}

// imbalance returns max/mean of the per-shard loads (1 = perfectly
// even; 0 when empty).
func imbalance(loads []int) float64 {
	if len(loads) == 0 {
		return 0
	}
	total, max := 0, 0
	for _, v := range loads {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// LoadImbalance returns the max/mean ratio of per-shard live-object
// counts: 1.0 is perfectly even, S means everything piled into one of
// S shards. Reshard exists to push this back toward 1.
func (db *DB) LoadImbalance() float64 {
	return imbalance(shardLoads(db.lo(), db.store.Dense(), db.store.Alive))
}

// Slack returns the total mutation slack across all shards.
func (db *DB) Slack() int64 {
	var total int64
	lo := db.lo()
	for i := range lo.shards {
		total += lo.shards[i].ep().index.Slack()
	}
	return total
}

// aggregateIndexStats folds per-shard index shapes into one summary:
// counts and footprints sum, depth is the maximum.
func aggregateIndexStats(sts []core.IndexStats) core.IndexStats {
	var agg core.IndexStats
	for _, st := range sts {
		agg.NonLeaf += st.NonLeaf
		agg.Leaves += st.Leaves
		agg.Pages += st.Pages
		agg.Entries += st.Entries
		agg.MemBytes += st.MemBytes
		if st.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = st.MaxDepth
		}
	}
	if agg.Leaves > 0 {
		agg.AvgEntries = float64(agg.Entries) / float64(agg.Leaves)
	}
	return agg
}

// genSnap is a snapshot of the engine's mutation state across every
// shard. The layout generation grows at every Reshard, epoch-swap
// counters only grow, and between swaps each shard's index mutation
// counter only grows, so the triple changes whenever the layout is
// replaced or any shard mutates or compacts — derived snapshots
// (order-k grids) compare it to detect staleness.
type genSnap struct {
	layout uint64 // layout generation (Reshard)
	epochs uint64 // Σ per-shard epoch generation
	muts   uint64 // Σ per-shard index mutation generation
}

func (db *DB) genSnap() genSnap {
	lo := db.lo()
	g := genSnap{layout: lo.gen}
	for i := range lo.shards {
		ep := lo.shards[i].ep()
		g.epochs += ep.gen
		g.muts += ep.index.Gen()
	}
	return g
}

// validateShards normalizes an Options.Shards value.
func validateShards(s int) (int, error) {
	if s <= 0 {
		return 1, nil
	}
	if s > MaxShards {
		return 0, fmt.Errorf("uvdiagram: Shards = %d exceeds the maximum of %d", s, MaxShards)
	}
	return s, nil
}
