package uvdiagram

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/rtree"
)

// Dynamic updates — the maintenance story the paper leaves as future
// work. Insert and Delete mutate the current database state
// incrementally; Compact constructs a fresh state off-thread and
// publishes it with one atomic swap, so concurrent queries are never
// blocked by (and never observe a torn state from) a rebuild.
//
// Every writer — Insert, Delete/BatchDelete, Compact — holds
// the store lock (see the DB doc) exclusively, so writes are serialized
// and the per-shard leaf surgery needs no lock of its own.
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
// cr-object representation into every shard its UV-cell reaches (the
// others are left untouched). Each insert adds to the touched
// shards' slack counters (Slack, ShardStat.Slack) the leaf entries it
// wrote; Insert starts no goroutine and never compacts.
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
	st := db.state()
	tree := st.tree
	tree.Insert(rtree.Item{ID: o.ID, MBC: o.Region, Ptr: uint64(o.ID)})
	crIDs := db.deriveCR(tree, o)
	if err := st.cr.Append(o.ID, crIDs); err != nil {
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
	for i, ix := range st.indexes {
		// A shard the new cell's representation cannot reach fails
		// InsertLeafLive's root-level 4-point test and stays untouched.
		if _, err := ix.InsertLeafLive(o.ID); err != nil {
			// Unwind the whole insert — strip the object from the shards
			// already applied, then registry, tree and store — so a
			// failed Insert leaves the database exactly as it was.
			for _, applied := range st.indexes[:i] {
				_, _ = applied.RemoveAndReinsertLive([]int32{o.ID}, nil)
			}
			st.cr.RemoveLast()
			tree.Delete(o.ID, o.Region)
			if rerr := db.store.RemoveLast(); rerr != nil {
				return fmt.Errorf("uvdiagram: insert failed at shard %d (%v) AND rollback failed: %w", i, err, rerr)
			}
			return fmt.Errorf("uvdiagram: insert rolled back: %w", err)
		}
	}
	// Opportunistic repair: fold the new constraint into every CACHED
	// boundary profile it can clip, recording the new id in those
	// representations. Repair only tightens reps (regions shrink), so no
	// leaf surgery follows; objects without a cached profile are skipped
	// — their reps, formed before o existed, stay sound as-is.
	if n := st.topo.RepairOnInsert(st.cr, o, db.store.Dense(), db.store.Alive); n > 0 {
		db.mstats.repaired.Add(int64(n))
	}
	db.mstats.inserts.Add(1)
	return nil
}

// Delete removes object id from the database incrementally. The id is
// tombstoned in the store (never reused), removed from the shared
// helper R-tree, and excised from the UV-indexes: because removing an
// object can only GROW the UV-cells of the objects whose cr-set
// contained it, exactly those neighbors are re-derived (once, from the
// engine-wide registry) and re-inserted into every shard their grown
// cells reach — only the shards the victims' or dependents' cells reach
// are touched, keeping every leaf list a superset of the true
// overlaps. Answers stay exact.
//
// Like Insert, Delete needs no synchronization against queries (see
// the package comment). Each delete adds to the touched shards' slack
// counters the leaf entries it rewrote; Delete starts no goroutine and
// never compacts.
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
	st := db.state()
	rects := db.layout.shards
	nsh := len(rects)
	// touched marks the shards whose leaf structure the batch can
	// affect. A shard holds leaf entries for X only if X's CURRENT
	// registry representation reaches it (entries are created by the
	// same 4-point test), so marking the victims' and dependents' reach
	// BEFORE the registry changes covers every entry to remove, and
	// marking the dependents' FRESH representations afterwards covers
	// every entry to re-create.
	touched := make([]bool, nsh)
	mark := func(id int32, crIDs []int32) {
		for i, ix := range st.indexes {
			if !touched[i] && ix.RepReaches(id, crIDs, rects[i]) {
				touched[i] = true
			}
		}
	}
	affected := st.cr.AffectedBy(ids)
	if nsh == 1 {
		touched[0] = true
	} else {
		for _, id := range ids {
			mark(id, st.cr.Of(id))
		}
		for _, a := range affected {
			mark(a, st.cr.Of(a))
		}
	}
	// Publication order (see the DB locking notes): R-tree deletes
	// FIRST — k-NN retrieval flips to the post-batch population with one
	// header swap, and the re-derivations below scan a victim-free tree
	// — then the per-shard leaf tables, and the store tombstones LAST,
	// so a query's view captured before its tree loads always covers
	// every id the tree can still hand it.
	tree := st.tree
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
		prof := st.topo.Ensure(a, objs[a], st.cr.Of(a), objs, db.domain)
		tight := prof.AnyTight(ids)
		st.cr.Strip(a, vic)
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
		st.cr.Replace(a, db.deriveCR(tree, objs[a]))
		st.topo.Invalidate(a)
	}
	st.cr.Drop(ids)
	for _, id := range ids {
		st.topo.Invalidate(id)
	}
	if nsh > 1 {
		// Stripped and fresh representations cover GROWN cells: re-mark
		// so reinsertion reaches every shard a grown cell now touches.
		for _, a := range affected {
			mark(a, st.cr.Of(a))
		}
	}
	// Leaf surgery per touched shard: strip victims and dependents, then
	// re-insert every dependent with its CURRENT representation —
	// stripped or fresh, both are sound supersets — publishing each
	// shard's new leaf table with one snapshot store.
	remove := make([]int32, 0, len(ids)+len(affected))
	remove = append(remove, ids...)
	remove = append(remove, affected...)
	for i, ix := range st.indexes {
		if !touched[i] {
			continue
		}
		if _, err := ix.RemoveAndReinsertLive(remove, affected); err != nil {
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
	return nil
}

// Compact reconstructs every shard's UV-index, the constraint registry
// and the helper R-tree from scratch over the live objects, clearing
// the slack accumulated by Inserts and Deletes. The shadow build is
// skipped if ctx is already cancelled when compaction starts (the build
// itself is one uninterruptible pass). The live population is derived
// once — a FULL re-derivation, refreshing every constraint set, on
// Options.Workers goroutines taken literally — and every shard's
// sub-grid is then shadow-built in parallel. The new state is published
// with one atomic swap: queries are never blocked, and see either the
// old or the new state, never a mixture. Concurrent Inserts and Deletes
// serialize behind the compaction.
func (db *DB) Compact(ctx context.Context) error {
	db.smu.Lock()
	defer db.smu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	tstart := time.Now()
	// Shadow build: nothing below mutates the live state or the store.
	if hook := db.compactHook; hook != nil {
		hook()
	}
	st, err := db.rebuild(db.bopts, db.state().gen+1)
	if err == nil {
		db.cur.Store(st)
	}
	db.fireMaint(MaintEvent{Kind: MaintCompact, Dur: time.Since(tstart), Err: err})
	return err
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
	return db.possibleKNN(db.state().tree, q, k)
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
