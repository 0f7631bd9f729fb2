package uvdiagram

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uvdiagram/internal/core"
	"uvdiagram/internal/pager"
)

// BatchOptions tune batch query execution. The zero value (or a nil
// pointer) means "parallelize over all CPUs".
type BatchOptions struct {
	// Workers bounds the worker pool running grid lookups (0 →
	// GOMAXPROCS, 1 → sequential).
	Workers int
}

func (o *BatchOptions) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// pnnOn is the one PNN body behind DB.PNN and the batch engine: it
// answers q on the owning shard's index over a *core.QueryScratch drawn
// from the DB's pool — candidate ids, fetched candidates and the
// probability-integration vectors are all reused, and a fetch decodes
// no pdf, so a steady-state PNN, single or batched, allocates only its
// leaf tuples and its answer slice.
func (db *DB) pnnOn(ix *core.UVIndex, q Point) ([]Answer, QueryStats, error) {
	sc := db.queryScratch()
	answers, st, err := ix.PNNWith(q, sc)
	db.scratch.Put(sc) // the answers are already copied out
	return answers, st, err
}

// queryScratch draws a query scratch from the DB's pool; the caller
// puts it back once its answers are copied out.
func (db *DB) queryScratch() *core.QueryScratch {
	if sc, ok := db.scratch.Get().(*core.QueryScratch); ok {
		return sc
	}
	return new(core.QueryScratch)
}

// BufferPoolStats is the serving-side memory economy snapshot: the
// hit/miss/eviction counters of the helper R-tree's decoded-leaf memo
// (the only leaf cache: UV-index leaves are read from their pages on
// every query), plus the pager-level I/O and footprint totals summed
// across the object store, every shard index and the R-tree. The
// metrics layer samples it into gauges.
type BufferPoolStats struct {
	// Deprecated: always 0 since the grid leaf cache was removed; kept only until bench/ is re-anchored.
	LeafHits int64
	// Deprecated: always 0 since the grid leaf cache was removed; kept only until bench/ is re-anchored.
	LeafMisses int64
	// Deprecated: always 0 since the grid leaf cache was removed; kept only until bench/ is re-anchored.
	LeafEvictions int64
	// RTree* count the helper R-tree's leaf memo; they restart when a
	// compaction swaps in a freshly built tree.
	RTreeHits      int64
	RTreeMisses    int64
	RTreeEvictions int64
	PagerReads     int64 // page reads across all pagers
	PagerWrites    int64
	DiskBytes      int64 // simulated disk footprint across all pagers

	// Out-of-core footprint (all zero for an in-heap database): bytes
	// of snapshot sections served straight off the mapped file, how
	// many of those are resident in physical memory right now
	// (ResidentKnown false when the mincore probe is unsupported), and
	// the heap bytes the pagers of an mmap-opened database hold now:
	// pages allocated or rewritten since Open and not freed since,
	// including every page of the sections a Compact rebuilt.
	MappedBytes   int64
	ResidentBytes int64
	ResidentKnown bool
	TailBytes     int64
}

// BufferPoolStats returns a snapshot of the buffer-pool counters.
func (db *DB) BufferPoolStats() BufferPoolStats {
	var st BufferPoolStats
	state := db.state()
	st.RTreeHits, st.RTreeMisses, st.RTreeEvictions = state.tree.MemoStats()
	st.ResidentKnown = true
	for _, pg := range db.pagers(state) {
		st.PagerReads += pg.Reads()
		st.PagerWrites += pg.Writes()
		st.DiskBytes += pg.BytesOnDisk()
		st.MappedBytes += pg.MappedBytes()
		res, known := pg.Resident()
		st.ResidentBytes += res
		st.ResidentKnown = st.ResidentKnown && known
		if db.mapping != nil {
			st.TailBytes += pg.HeapBytes()
		}
	}
	return st
}

// DropCaches advises every mmap-backed section out of the OS page
// cache — the cold-start / resident-set-cap lever of the out-of-core
// harness. Live pages refault from the snapshot file on their next
// read; an in-heap database is unaffected (returns 0). Safe
// concurrently with queries.
func (db *DB) DropCaches() int64 {
	var n int64
	for _, pg := range db.pagers(db.state()) {
		n += int64(pg.DropCaches())
	}
	return n
}

// pagers lists every pager serving the database in state st: the
// object store, each shard index and the helper R-tree.
func (db *DB) pagers(st *dbState) []*pager.Pager {
	out := make([]*pager.Pager, 0, len(st.indexes)+2)
	out = append(out, db.store.Pager())
	for _, ix := range st.indexes {
		out = append(out, ix.Pager())
	}
	return append(out, st.tree.Pager())
}

// runPool executes fn(i) for i in [0, n) on a bounded worker pool — the
// one pool behind the batch queries, AdvanceAll and the per-shard
// sub-grid builds. On failure it returns the lowest-indexed error
// recorded, wrapped with that index and label, which names one unit of
// work ("query 3: …", "session 1: …", "shard 2: …"); units not yet
// started are skipped once a failure is seen. fn writes per-index
// results into caller-owned positional slices, so the output order is
// deterministic and identical to a sequential loop.
func runPool(n, workers int, label string, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		var failed atomic.Bool
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if failed.Load() {
						continue // drain; results are moot
					}
					if errs[i] = fn(i); errs[i] != nil {
						failed.Store(true)
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s %d: %w", label, i, err)
		}
	}
	return nil
}

// BatchNN answers N probabilistic nearest-neighbor queries with a
// worker pool, one grid lookup per point, scatter-gathered by shard.
// Results — and page reads — are identical to N sequential PNN calls in
// query order; on any failure the error of the lowest failing query is
// returned and the results are discarded.
//
// Like the single-point queries, batches run lock-free against every
// mutation, including Insert and Delete (copy-on-write snapshots; see
// the DB locking notes).
func (db *DB) BatchNN(qs []Point, opts *BatchOptions) ([][]Answer, error) {
	return db.batchPNN(qs, opts, nil)
}

// batchPNN is the routed PNN loop behind BatchNN, BatchTopKPNN and
// BatchThresholdNN: each point scatters to its owning shard's index in
// one state loaded for the whole batch, and its full PNN answer passes
// through keep (nil keeps it whole) before it is stored in its request
// slot.
func (db *DB) batchPNN(qs []Point, opts *BatchOptions, keep func([]Answer) []Answer) ([][]Answer, error) {
	t := db.egc.Pin() // one pin covers every worker's page reads
	defer db.egc.Unpin(t)
	indexes := db.state().indexes
	owner, err := db.layout.plan(db.domain, qs)
	if err != nil {
		return nil, err
	}
	out := make([][]Answer, len(qs))
	err = runPool(len(qs), opts.workers(), "query", func(i int) error {
		answers, _, err := db.pnnOn(indexes[owner[i]], qs[i])
		if err != nil {
			return err
		}
		if keep != nil {
			answers = keep(answers)
		}
		out[i] = answers
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BatchTopKPNN answers N top-k probable nearest-neighbor queries (the
// batch form of TopKPNN), k shared by the whole batch.
func (db *DB) BatchTopKPNN(qs []Point, k int, opts *BatchOptions) ([][]Answer, error) {
	return db.batchPNN(qs, opts, func(answers []Answer) []Answer { return topKAnswers(answers, k) })
}

// BatchThresholdNN answers N probability-threshold nearest-neighbor
// queries: per point, the PNN answers whose qualification probability
// is at least tau (the threshold variant of [14]'s PNN formulation).
// tau ≤ 0 degenerates to BatchNN.
func (db *DB) BatchThresholdNN(qs []Point, tau float64, opts *BatchOptions) ([][]Answer, error) {
	return db.batchPNN(qs, opts, func(answers []Answer) []Answer {
		kept := answers[:0]
		for _, a := range answers {
			if a.Prob >= tau {
				kept = append(kept, a)
			}
		}
		return kept
	})
}

// BatchOrderK answers N possible-k-NN queries (the order-k batch
// variant), k shared by the whole batch. Results are identical to N
// sequential PossibleKNN calls. Retrieval runs on the shared helper
// R-tree, pinned once for the whole batch.
func (db *DB) BatchOrderK(qs []Point, k int, opts *BatchOptions) ([][]int32, error) {
	t := db.egc.Pin() // one pin covers every worker's page reads
	defer db.egc.Unpin(t)
	tree := db.state().tree
	out := make([][]int32, len(qs))
	err := runPool(len(qs), opts.workers(), "query", func(i int) error {
		ids, err := db.possibleKNN(tree, qs[i], k) // k-NN accepts finite out-of-domain points
		out[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BatchPossibleKNN answers N possible-k-NN queries from the order-k
// grid with a worker pool — the grid-served counterpart of
// DB.BatchOrderK. Like PossibleKNN, it errors once the database has
// mutated past the grid's snapshot.
func (ix *OrderKIndex) BatchPossibleKNN(qs []Point, opts *BatchOptions) ([][]int32, error) {
	if err := ix.fresh(); err != nil {
		return nil, err
	}
	out := make([][]int32, len(qs))
	err := runPool(len(qs), opts.workers(), "query", func(i int) error {
		ids, _, err := ix.possibleKNN(qs[i])
		out[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
