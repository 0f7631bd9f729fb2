package uvdiagram

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/rtree"
)

// Dynamic updates — the maintenance story the paper leaves as future
// work. Insert and Delete mutate the current shard epochs incrementally;
// Compact, CompactShard and Reshard construct fresh state
// off-thread and publish it with atomic swaps, so concurrent queries
// are never blocked by (and never observe a torn state from) a rebuild.
//
// The two-level locking scheme (see the DB doc) splits mutations:
// store, dense ids, constraint registry and the shared helper R-tree
// change under the exclusive store-level lock; the per-shard leaf
// surgery then takes only the write mutexes of the shards the mutated
// UV-cells actually reach, in ascending shard order. CompactShard takes
// the store-level lock SHARED plus its one shard's mutex, which is why
// compactions of disjoint shards overlap in wall-clock while everything
// stays serialized against Insert/Delete.
//
// Concurrency contract: NO mutation requires external synchronization
// against queries. Incremental maintenance is copy-on-write throughout
// — leaf tables, R-tree nodes and the store's population view are
// replaced behind atomic pointers in a fixed publication order (see the
// DB locking notes) — so queries run lock-free against every mutation
// and observe each one atomically. The locks above serialize mutations
// against EACH OTHER only.
//
// Deletes are output-sensitive: the topology registry (core.Topology)
// splits a victim's dependents into those whose boundary the victim
// actually shaped (tight — re-derived from scratch with Insert's
// derivation) and the rest, which keep their representation stripped
// of the victim with no derivation at all. Any set of live constraint
// ids is a sound conservative cell representation, so the split
// affects slack and cost, never answers.

// Insert adds a new uncertain object to a built database. The object's
// ID must be the next dense ID (db.NextID(); deleted IDs are never
// reused), and its region a finite circle (see ErrInvalidObject).
//
// Soundness: a new object only shrinks other objects' UV-cells, and
// index leaf lists are supersets of the true overlaps, so existing
// entries stay valid; the new object is inserted with a freshly derived
// cr-object representation into every shard its UV-cell reaches (only
// those shards are locked and touched). Repeated inserts accumulate
// slack in the touched shards' leaf lists (extra false positives, never
// wrong answers); Compact — or the Options.CompactSlack per-shard
// auto-compaction watermark — clears it.
//
// The store append, R-tree insert, registry append and leaf inserts
// land together: if a later step fails its validation, the earlier ones
// are rolled back, so a failed Insert leaves the database exactly as it
// was.
func (db *DB) Insert(o Object) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if int(o.ID) != db.store.Len() {
		return fmt.Errorf("uvdiagram: Insert with ID %d, want next dense id %d", o.ID, db.store.Len())
	}
	if err := checkObject(o); err != nil {
		return err
	}
	if !db.domain.Contains(o.Region.C) {
		return fmt.Errorf("uvdiagram: object center %v outside domain %v", o.Region.C, db.domain)
	}
	if err := db.store.Append(o); err != nil {
		return err
	}
	tree := db.rtree()
	tree.Insert(rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(o.ID)})
	crIDs := db.deriveCR(tree, o)
	if err := db.cr.Append(o.ID, crIDs); err != nil {
		// Registry validation depends only on the id ordering, which the
		// store append just established; a failure here means the
		// engine's invariants are already broken — still roll back the
		// store and tree to the pre-call state before reporting.
		tree.Delete(o.ID, o.Region)
		if rerr := db.store.RemoveLast(); rerr != nil {
			return fmt.Errorf("uvdiagram: insert failed (%v) AND rollback failed: %w", err, rerr)
		}
		return fmt.Errorf("uvdiagram: insert rolled back: %w", err)
	}
	lo := db.lo()
	var applied []*shard
	for i := range lo.shards {
		sh := lo.shards[i]
		// Lock only the shards the new cell's representation reaches —
		// the same root-level 4-point test InsertLeafLive re-runs, so a
		// skipped shard is one the insert provably cannot touch.
		if len(lo.shards) > 1 && !sh.ep().index.CellReaches(o.ID, sh.rect) {
			continue
		}
		sh.wmu.Lock()
		_, err := sh.ep().index.InsertLeafLive(o.ID)
		sh.wmu.Unlock()
		if err != nil {
			// Unwind the whole insert — strip the object from the shards
			// already applied, then registry, tree and store — so a
			// failed Insert leaves the database exactly as it was.
			for _, ps := range applied {
				ps.wmu.Lock()
				_, _ = ps.ep().index.RemoveAndReinsertLive([]int32{o.ID}, nil)
				ps.wmu.Unlock()
			}
			db.cr.RemoveLast()
			tree.Delete(o.ID, o.Region)
			if rerr := db.store.RemoveLast(); rerr != nil {
				return fmt.Errorf("uvdiagram: insert failed at shard %d (%v) AND rollback failed: %w", i, err, rerr)
			}
			return fmt.Errorf("uvdiagram: insert rolled back: %w", err)
		}
		applied = append(applied, sh)
	}
	// Opportunistic repair: fold the new constraint into every CACHED
	// boundary profile it can clip, recording the new id in those
	// representations. Repair only tightens reps (regions shrink), so no
	// leaf surgery follows; objects without a cached profile are skipped
	// — their reps, formed before o existed, stay sound as-is.
	if n := db.topo.RepairOnInsert(db.cr, o, db.store.Dense(), db.store.Alive); n > 0 {
		db.mstats.repaired.Add(int64(n))
	}
	db.mstats.inserts.Add(1)
	db.maybeCompact()
	return nil
}

// Delete removes object id from the database incrementally. The id is
// tombstoned in the store (never reused), removed from the shared
// helper R-tree, and excised from the UV-indexes: because removing an
// object can only GROW the UV-cells of the objects whose cr-set
// contained it, exactly those neighbors are re-derived (once, from the
// engine-wide registry) and re-inserted into every shard their grown
// cells reach — only the shards the victims' or dependents' cells reach
// are locked and touched, keeping every leaf list a superset of the
// true overlaps. Answers stay exact.
//
// Like Insert, Delete needs no synchronization against queries (see
// the package comment). Each delete adds slack proportional to the
// leaf entries rewritten in the shards it touches; Compact (or the
// CompactSlack watermark) clears it.
func (db *DB) Delete(id int32) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if !db.store.Alive(id) {
		return fmt.Errorf("uvdiagram: unknown or deleted object %d", id)
	}
	return db.deleteBatchLocked([]int32{id})
}

// BatchDelete removes many objects in one critical section. It is
// all-or-nothing: every id is validated (known, live, no duplicates)
// before the first deletion, so a failing batch changes nothing. The
// index repair is shared across the batch — per touched shard, one leaf
// walk strips every victim and dependent and dirty pages flush once,
// instead of per victim; dependent re-derivation runs once for the
// whole engine.
func (db *DB) BatchDelete(ids []int32) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	seen := make(map[int32]bool, len(ids))
	for i, id := range ids {
		if !db.store.Alive(id) {
			return fmt.Errorf("uvdiagram: delete %d: unknown or deleted object %d", i, id)
		}
		if seen[id] {
			return fmt.Errorf("uvdiagram: delete %d: duplicate object %d in batch", i, id)
		}
		seen[id] = true
	}
	if len(ids) == 0 {
		return nil
	}
	return db.deleteBatchLocked(ids)
}

// deleteBatchLocked removes validated, live ids with db.smu held
// exclusively.
func (db *DB) deleteBatchLocked(ids []int32) error {
	lo := db.lo()
	nsh := len(lo.shards)
	// touched marks the shards whose leaf structure the batch can
	// affect. A shard holds leaf entries for X only if X's CURRENT
	// registry representation reaches it (entries are created by the
	// same 4-point test), so marking the victims' and dependents' reach
	// BEFORE the registry changes covers every entry to remove, and
	// marking the dependents' FRESH representations afterwards covers
	// every entry to re-create.
	touched := make([]bool, nsh)
	mark := func(id int32, crIDs []int32) {
		for i := range lo.shards {
			if !touched[i] && lo.shards[i].ep().index.RepReaches(id, crIDs, lo.shards[i].rect) {
				touched[i] = true
			}
		}
	}
	affected := db.cr.AffectedBy(ids)
	if nsh == 1 {
		touched[0] = true
	} else {
		for _, id := range ids {
			mark(id, db.cr.Of(id))
		}
		for _, a := range affected {
			mark(a, db.cr.Of(a))
		}
	}
	// Publication order (see the DB locking notes): R-tree deletes
	// FIRST — k-NN retrieval flips to the post-batch population with one
	// header swap, and the re-derivations below scan a victim-free tree
	// — then the per-shard leaf tables, and the store tombstones LAST,
	// so a query's view captured before its tree loads always covers
	// every id the tree can still hand it.
	tree := db.rtree()
	for _, id := range ids {
		tree.Delete(id, db.store.At(int(id)).Region)
	}
	// Output-sensitive dependent triage: a dependent whose victims never
	// shaped its boundary (not tight in its cached topology profile)
	// keeps its representation minus the victims — no derivation, and
	// the stripped profile stays valid. Only tight dependents re-derive.
	// The store still holds the victims (tombstones come last), so
	// profiles built here can evaluate victim constraints.
	vic := make(map[int32]bool, len(ids))
	for _, id := range ids {
		vic[id] = true
	}
	objs := db.store.Dense()
	rederive := make([]int32, 0, len(affected))
	for _, a := range affected {
		prof := db.topo.Ensure(a, objs[a], db.cr.Of(a), objs, db.domain)
		tight := prof.AnyTight(ids)
		db.cr.Strip(a, vic)
		if tight {
			rederive = append(rederive, a)
		}
	}
	// The tight dependents re-derive with Insert's derivation against
	// the already victim-free tree: a fresh sector browse re-seeds every
	// sector whose seed was a victim, so a set tracks the live population
	// rather than every id it ever held. The fresh set need not contain
	// the stripped one, and that is sound: the shards the old
	// representation reached were marked above, the ones the fresh one
	// reaches are marked below, and every marked shard strips the
	// dependent and re-inserts it with Build's 4-point test. The tree
	// holds no victim, so the set is sorted, excludes a itself and names
	// no tombstoned object, as Open's registry decoder requires. One
	// derivation serves every shard.
	for _, a := range rederive {
		db.cr.Replace(a, db.deriveCR(tree, objs[a]))
		db.topo.Invalidate(a)
	}
	db.cr.Drop(ids)
	for _, id := range ids {
		db.topo.Invalidate(id)
	}
	if nsh > 1 {
		// Stripped and fresh representations cover GROWN cells: re-mark
		// so reinsertion reaches every shard a grown cell now touches.
		for _, a := range affected {
			mark(a, db.cr.Of(a))
		}
	}
	// Leaf surgery per touched shard: strip victims and dependents, then
	// re-insert every dependent with its CURRENT representation —
	// stripped or fresh, both are sound supersets — publishing each
	// shard's new leaf table with one snapshot store.
	remove := make([]int32, 0, len(ids)+len(affected))
	remove = append(remove, ids...)
	remove = append(remove, affected...)
	for i := range lo.shards {
		if !touched[i] {
			continue
		}
		sh := lo.shards[i]
		sh.wmu.Lock()
		_, err := sh.ep().index.RemoveAndReinsertLive(remove, affected)
		sh.wmu.Unlock()
		if err != nil {
			return err
		}
	}
	// Tombstone last.
	for _, id := range ids {
		if err := db.store.Delete(id); err != nil {
			return err
		}
	}
	db.mstats.deletes.Add(int64(len(ids)))
	db.mstats.dependents.Add(int64(len(affected)))
	db.mstats.rederived.Add(int64(len(rederive)))
	db.mstats.skipped.Add(int64(len(affected) - len(rederive)))
	db.maybeCompact()
	return nil
}

// Compact reconstructs every shard's UV-index, the constraint registry
// and the helper R-tree from scratch over the live objects, clearing
// the slack accumulated by Inserts and Deletes. The shadow build is
// skipped if ctx is already cancelled when compaction starts (the build
// itself is one uninterruptible pass). The live population is derived
// once — a FULL re-derivation, refreshing every constraint set — and
// every shard's sub-grid is then shadow-built in parallel and published
// with one atomic epoch swap each. Queries are never blocked — they see
// either the old or the new index, never a mixture. Concurrent Inserts
// and Deletes serialize behind the compaction. For maintenance bounded
// by one shard's size, use CompactShard (or CompactAll to roll over
// every shard with bounded parallelism).
func (db *DB) Compact(ctx context.Context) error {
	return db.rederiveAll(ctx, MaintCompact, nil)
}

// rederiveAll is the full maintenance pass behind Compact and
// ReshardWith: one re-derivation of every constraint set and a fresh
// helper R-tree (the bulk-load drops the slack delete churn left
// behind, and keeps the derivation's simulated-disk reads off the live
// tree's I/O accounting), shadow-built into the current layout's shards
// (recut == nil) or into the layout recut returns, which is then
// published with ONE atomic layout-pointer swap.
func (db *DB) rederiveAll(ctx context.Context, kind string, recut func(old *shardLayout) *shardLayout) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	tstart := time.Now()
	ev := MaintEvent{Kind: kind, Shard: -1}
	old := db.lo()
	lo := old
	if recut != nil {
		ev.ImbalanceBefore = db.LoadImbalance()
		ev.ImbalanceAfter = ev.ImbalanceBefore
		lo = recut(old)
	}
	// Shadow build: nothing below mutates the live epochs or the store.
	if hook := db.compactHook; hook != nil {
		hook(-1)
	}
	tree := core.BuildHelperRTree(db.store, db.bopts.Fanout)
	tree.SetReclaimDomain(db.egc)
	t0 := time.Now()
	crSets, stats, err := core.DeriveCRSets(db.store, db.domain, tree, db.bopts)
	var cr *core.CRState
	if err == nil {
		cr = core.NewCRState(crSets)
		err = db.buildShards(lo, cr, &stats, t0, maxGen(old)+1)
	}
	if err == nil {
		db.cr = cr
		db.topo = core.NewTopology(cr.Len(), db.bopts.RegionSamples)
		db.tree.Store(tree)
		if recut != nil {
			db.layout.Store(lo) // the single publication point
			ev.ImbalanceAfter = db.LoadImbalance()
		}
		db.built.Store(&stats)
	}
	ev.Dur, ev.Err = time.Since(tstart), err
	db.fireMaint(ev)
	return err
}

// maxGen returns the highest epoch generation across a layout's shards;
// publishing every fresh epoch with maxGen+1 guarantees each shard sees
// a generation different from its current one.
func maxGen(lo *shardLayout) uint64 {
	var max uint64
	for i := range lo.shards {
		if g := lo.shards[i].ep().gen; g > max {
			max = g
		}
	}
	return max
}

// CompactShard shadow-rebuilds one shard's leaf structure from the
// engine's current constraint registry and swaps it in, leaving the
// other shards untouched: the rebuild clears the leaf-list slack
// accumulated by incremental maintenance (stale entries, overflow
// pages), bounded by the objects whose cells reach the shard rather
// than the whole diagram. Constraint sets themselves are NOT re-derived
// — that is the full Compact's (or Reshard's) job — which is what lets
// CompactShard hold the store-level lock only SHARED: compactions of
// disjoint shards run truly in parallel, serializing only against
// Insert/Delete/Compact/Reshard. Queries are never blocked. This is the
// unit of background auto-compaction.
func (db *DB) CompactShard(ctx context.Context, i int) error {
	db.smu.RLock()
	defer db.smu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	lo := db.lo()
	if i < 0 || i >= len(lo.shards) {
		return fmt.Errorf("uvdiagram: shard %d out of range [0, %d)", i, len(lo.shards))
	}
	return db.compactShardLocked(lo, i)
}

// compactShardLocked is CompactShard's body: the shadow build and epoch
// swap of shard i of lo. The caller holds smu (shared suffices) and lo
// is the layout current under that hold — smu is what keeps Reshard
// (which takes it exclusively) from swapping the layout mid-build, so
// the fresh epoch can never be stored into a retired layout's shard.
// A failed build (a page size no leaf page fits) leaves the shard as it
// was.
func (db *DB) compactShardLocked(lo *shardLayout, i int) error {
	sh := lo.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	if hook := db.compactHook; hook != nil {
		hook(i)
	}
	t0 := time.Now()
	old := sh.ep()
	ix, _, err := core.BuildRegionCR(db.store, sh.rect, db.cr, 1, db.bopts.Index)
	if err != nil {
		db.fireMaint(MaintEvent{Kind: MaintCompactShard, Shard: i, Dur: time.Since(t0), Err: err})
		return err
	}
	ix.SetReclaimDomain(db.egc)
	sh.epoch.Store(&indexEpoch{index: ix, gen: old.gen + 1})
	// The full-build statistics snapshot keeps its phase timings; only
	// the aggregate index shape is refreshed. CAS loop: concurrent
	// shard compactions (CompactAll) hold the store lock shared, so a
	// plain load-modify-store could lose the other's refresh — a failed
	// CAS re-aggregates over the then-current epochs and retries.
	for {
		prev := db.built.Load()
		stats := *prev
		stats.Index = db.IndexStats()
		if db.built.CompareAndSwap(prev, &stats) {
			break
		}
	}
	db.fireMaint(MaintEvent{Kind: MaintCompactShard, Shard: i, Dur: time.Since(t0)})
	return nil
}

// CompactAll compacts every shard with CompactShard on a bounded worker
// pool (parallelism ≤ 0 means one worker per CPU, capped at the shard
// count). Workers hold the store-level lock shared and distinct shard
// mutexes, so the per-shard shadow builds genuinely overlap; on failure
// the remaining shards are skipped and the lowest-indexed error is
// returned.
func (db *DB) CompactAll(ctx context.Context, parallelism int) error {
	n := len(db.lo().shards)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	return runPool(n, parallelism, "shard", func(i int) error {
		return db.CompactShard(ctx, i)
	})
}

// Reshard re-cuts the shard layout online to match the LIVE object
// distribution: it derives every constraint set once (a full
// re-derivation, like Compact), builds the complete new layout's shard
// sub-grids off to the side, and publishes cuts and all shard epochs
// with ONE atomic layout-pointer swap — queries route through either
// the old layout or the new one, never a mixture, and are never
// blocked. The grid dimensions stay; only the cut coordinates move.
//
// Reshard chooses cuts with the database's configured adaptive
// strategy; a database built with the default equal strips reshards
// with WeightedMedian — calling Reshard means asking for balance. Use
// ReshardWith for an explicit strategy.
//
// Answers are bitwise identical before and after: the layout only
// changes which shard answers a point, never what the answer is.
func (db *DB) Reshard(ctx context.Context) error { return db.ReshardWith(ctx, nil) }

// ReshardWith is Reshard with an explicit layout strategy (nil selects
// the adaptive default described on Reshard).
func (db *DB) ReshardWith(ctx context.Context, strategy LayoutStrategy) error {
	if strategy == nil {
		strategy = db.strategy
		if _, equal := strategy.(EqualStrips); equal || strategy == nil {
			strategy = WeightedMedian{}
		}
	}
	return db.rederiveAll(ctx, MaintReshard, func(old *shardLayout) *shardLayout {
		xs, ys := strategy.Cuts(db.domain, old.gx, old.gy, db.liveCenters())
		return newShardLayout(old.gen+1, old.gx, old.gy, xs, ys)
	})
}

// deriveCR derives object o's constraint set against the current live
// population with the DB's long-lived derivation scratch (callers hold
// smu exclusively, so the scratch is never shared): steady-state
// mutation re-derivation allocates only the returned, registry-retained
// set. Insert and Delete both call it, and it runs Build's Algorithm 2.
func (db *DB) deriveCR(tree *rtree.Tree, o Object) []int32 {
	if db.dscratch == nil {
		db.dscratch = core.NewDeriveScratch()
	}
	return core.DeriveCR(tree, o, db.store.Dense(), db.domain,
		db.bopts.SeedK, db.bopts.SeedSectors, db.bopts.RegionSamples, db.dscratch)
}

// maybeCompact kicks off background compaction for every shard whose
// accumulated slack reached the armed watermark, returning how many it
// armed. Singleflight per shard: at most one auto-compaction runs per
// shard at a time, several shards may compact in parallel (they hold
// the store-level lock shared), and explicit mutations arriving
// meanwhile simply serialize behind them. Every exit of the spawned
// goroutine releases the singleflight flag, so a shard whose run was
// skipped (layout swapped underneath it) stays re-armable — the
// maintenance controller's tick also re-runs this check, so slack can
// never strand once writes stop.
func (db *DB) maybeCompact() int {
	if db.bopts.CompactSlack <= 0 {
		return 0
	}
	lo := db.lo()
	armed := 0
	for i := range lo.shards {
		sh := lo.shards[i]
		if sh.ep().index.Slack() < int64(db.bopts.CompactSlack) {
			continue
		}
		if !sh.compacting.CompareAndSwap(false, true) {
			continue
		}
		armed++
		go db.autoCompact(lo, i)
	}
	return armed
}

// autoCompact runs one armed background shard compaction. The
// layout-identity check happens UNDER the shared store lock: Reshard
// swaps the layout only while holding smu exclusively, so once the
// check passes the layout provably stays current for the whole shadow
// build. (Checking before acquiring smu — as this path originally did —
// left a window where a Reshard could land in between, making the build
// target the NEW layout's shard i while the singleflight flag held was
// the OLD shard's: never wrong answers, but wasted work and a
// compaction the new shard's own flag did not account for.)
func (db *DB) autoCompact(lo *shardLayout, i int) {
	sh := lo.shards[i]
	db.smu.RLock()
	defer db.smu.RUnlock()
	// Release the singleflight flag while still holding smu: a mutation
	// that lands after this run then finds the flag clear, and its
	// watermark check can arm the next run. Released after RUnlock, a
	// mutation slipping in between saw the flag still set, and its slack
	// stranded.
	defer sh.compacting.Store(false)
	// The watermark decision was made against THIS layout's shard; if a
	// Reshard replaced the layout meanwhile, the new shard i was just
	// freshly built (zero slack) and carries its own singleflight flag —
	// skip rather than compact it redundantly. The deferred flag release
	// keeps the old shard re-armable either way.
	if db.lo() != lo {
		return
	}
	db.compactShardLocked(lo, i) // a failure reaches OnMaintenance as the event's Err
}

// PossibleKNN returns the IDs of every object with non-zero probability
// of being among the k nearest neighbors of q — the k-NN generalization
// the paper lists as future work (k-th order Voronoi diagrams [30]).
// Retrieval runs on the shared helper R-tree (which covers the full
// live population): UV-index leaf lists only guarantee supersets for
// k = 1 cells, so the branch-and-prune path generalizes while the
// UV-index stays specialized for PNN. q may lie outside the domain, but
// a NaN or infinite coordinate fails with a *DomainError (matching
// ErrOutOfDomain).
func (db *DB) PossibleKNN(q Point, k int) ([]int32, error) {
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	return db.possibleKNN(db.rtree(), q, k)
}

// possibleKNN answers against one pinned tree (through its decoded-leaf
// memo, single call or batch alike). The walk's candidates are the
// answer: its bound is the k-th smallest distmax over all objects, so a
// candidate (distmin ≤ bound) has fewer than k surely-closer objects —
// prob.KNNAnswerSet's predicate — and every other object has at least
// k. The candidate buffer comes from knnItems: a warm call allocates
// only its result.
func (db *DB) possibleKNN(tree *rtree.Tree, q Point, k int) ([]int32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("uvdiagram: PossibleKNN needs k ≥ 1, got %d", k)
	}
	if !finite(q.X) || !finite(q.Y) {
		return nil, &DomainError{Point: q, Domain: db.domain}
	}
	items := knnItems.Get().(*[]rtree.Item)
	defer knnItems.Put(items)
	*items, _ = tree.AppendKNNCandidates((*items)[:0], q, k)
	out := make([]int32, len(*items))
	for i, it := range *items {
		out[i] = it.ID
	}
	slices.Sort(out)
	return out, nil
}

// knnItems pools possibleKNN's candidate buffers.
var knnItems = sync.Pool{New: func() any { return new([]rtree.Item) }}

// TopKPNN returns the k objects most likely to be the nearest neighbor
// of q, ordered by descending qualification probability (ties by ID) —
// the top-k probable nearest-neighbor query in the spirit of [29],
// served directly from the UV-index.
func (db *DB) TopKPNN(q Point, k int) ([]Answer, QueryStats, error) {
	answers, st, err := db.PNN(q)
	if err != nil {
		return nil, st, err
	}
	return topKAnswers(answers, k), st, nil
}

// topKAnswers sorts answers by descending probability (ties by ID) and
// truncates to the top k (k ≤ 0 yields an empty result). Shared by the
// sequential and batch top-k paths so their ordering stays bitwise
// identical.
func topKAnswers(answers []Answer, k int) []Answer {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Prob != answers[j].Prob {
			return answers[i].Prob > answers[j].Prob
		}
		return answers[i].ID < answers[j].ID
	})
	if k < 0 {
		k = 0
	}
	if k < len(answers) {
		answers = answers[:k]
	}
	return answers
}
