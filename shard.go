package uvdiagram

import (
	"fmt"
	"math"

	"uvdiagram/internal/core"
)

// Spatial sharding. The adaptive grid of the paper partitions the
// domain naturally, so the engine can split the plane into a gx × gy
// grid of shard rectangles, each owning an independent sub-grid
// UV-index:
//
//   - Point queries route to the owning shard with two boundary scans
//     and read its index from the one published database state
//     (dbState) lock-free.
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
//   - The layout (grid shape and cut coordinates) is fixed for the life
//     of a database: Build cuts equal strips, Open restores the cuts
//     stored in the file. Nothing replaces it afterwards, so a query
//     reads it without synchronization.
//   - Compact re-derives the registry once and shadow-builds every
//     shard's sub-grid in parallel, publishing them all, with the
//     R-tree and the registry, in one atomic state swap.
//
// One shard (the default) reproduces the pre-sharding engine exactly.

// MaxShards bounds Options.Shards (a 16×16 grid is already far past the
// point of diminishing returns for the paper's densities).
const MaxShards = 256

// shardLayout is the shard layout: the grid shape, the cut coordinates
// and the shard rectangles, row-major. Build and Open set it before the
// DB is handed out and nothing writes it afterwards. The shard indexes
// live in the database state (dbState.indexes), in the same order.
type shardLayout struct {
	gx, gy int
	xs, ys []float64
	shards []Rect
}

// newShardLayout lays out a gx × gy shard grid over the given cuts.
func newShardLayout(gx, gy int, xs, ys []float64) *shardLayout {
	lo := &shardLayout{gx: gx, gy: gy, xs: xs, ys: ys, shards: make([]Rect, gx*gy)}
	for r := 0; r < gy; r++ {
		for c := 0; c < gx; c++ {
			lo.shards[r*gx+c] = Rect{
				Min: Pt(xs[c], ys[r]),
				Max: Pt(xs[c+1], ys[r+1]),
			}
		}
	}
	return lo
}

// shardIdx returns the index of the shard owning q. Points outside the
// domain clamp to the nearest edge shard.
func (lo *shardLayout) shardIdx(q Point) int {
	return lastLE(lo.ys, q.Y)*lo.gx + lastLE(lo.xs, q.X)
}

// plan routes a whole batch in one pass: every point is
// domain-validated in REQUEST order (so the "error of the lowest
// failing query" contract holds however the workers interleave) and
// resolved to its owning shard exactly once.
func (lo *shardLayout) plan(domain Rect, qs []Point) (owner []int, err error) {
	owner = make([]int, len(qs))
	for i, q := range qs {
		if err := checkDomain(domain, q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		owner[i] = lo.shardIdx(q)
	}
	return owner, nil
}

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

// Shards returns the number of spatial shards (1 unless the database
// was built or loaded with Options.Shards > 1).
func (db *DB) Shards() int { return len(db.layout.shards) }

// ShardGrid returns the shard layout as grid dimensions (gx columns ×
// gy rows, row-major shard order).
func (db *DB) ShardGrid() (gx, gy int) { return db.layout.gx, db.layout.gy }

// ShardCuts returns copies of the layout's cut coordinates: gx+1
// x-cuts and gy+1 y-cuts, ends equal to the domain bounds. A built
// database has equal strips; an opened one has the cuts its file
// stores.
func (db *DB) ShardCuts() (xs, ys []float64) {
	return append([]float64(nil), db.layout.xs...), append([]float64(nil), db.layout.ys...)
}

// ShardStat describes one shard's live state.
type ShardStat struct {
	// Rect is the shard's region of the domain.
	Rect Rect
	// Live is the number of live objects whose center the shard owns.
	Live int
	// Slack is the leaf-list churn (entry-weighted) accumulated by
	// incremental Insert/Delete traffic that actually touched this
	// shard since its index was last (re)built. It counts churn, not
	// bloat: incremental maintenance keeps the leaf lists close to what
	// Compact would rebuild.
	Slack int64
	// Gen counts the Compacts since Build or Open: the generation of
	// the database state every shard of one ShardStats call was read
	// from.
	Gen uint64
	// Index is the shape of the shard's sub-grid.
	Index core.IndexStats
}

// ShardStats reports every shard's region, live-object count, slack and
// index shape, in shard order.
func (db *DB) ShardStats() []ShardStat {
	st := db.state()
	lo := db.layout
	live := shardLoads(lo, db.store.Dense(), db.store.Alive)
	out := make([]ShardStat, len(lo.shards))
	for i, ix := range st.indexes {
		out[i] = ShardStat{
			Rect:  lo.shards[i],
			Live:  live[i],
			Slack: ix.Slack(),
			Gen:   st.gen,
			Index: ix.Stats(),
		}
	}
	return out
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

// Slack returns the total mutation slack across all shards.
func (db *DB) Slack() int64 {
	var total int64
	for _, ix := range db.state().indexes {
		total += ix.Slack()
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

// genSnap is a snapshot of the engine's mutation state: the state's
// generation and the sum of its shard indexes' mutation generations.
// A Compact publishes a state of a new generation, and within one state
// each index's mutation counter only grows, so the pair changes whenever
// any shard mutates or the database compacts — derived snapshots
// (order-k grids) compare it to detect staleness.
type genSnap struct {
	gen  uint64 // state generation
	muts uint64 // Σ per-shard index mutation generation
}

func (st *dbState) genSnap() genSnap {
	g := genSnap{gen: st.gen}
	for _, ix := range st.indexes {
		g.muts += ix.Gen()
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
