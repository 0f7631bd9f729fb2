package uvdiagram

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uvdiagram/internal/core"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
)

// BatchOptions tune batch query execution. The zero value (or a nil
// pointer) means "parallelize over all CPUs, no leaf cache".
type BatchOptions struct {
	// Workers bounds the worker pool running grid lookups (0 →
	// GOMAXPROCS, 1 → sequential).
	Workers int
	// CacheSize enables a small LRU cache of decoded leaf page lists,
	// shared by all workers and kept across batch calls — profitable for
	// skewed query streams where many points fall into few leaves. 0
	// disables caching. The cache is invalidated automatically by
	// Insert.
	CacheSize int
}

func (o *BatchOptions) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o *BatchOptions) cacheSize() int {
	if o == nil {
		return 0
	}
	return o.CacheSize
}

// batchState lazily holds the leaf caches a DB (or order-k index)
// reuses across batch calls: per shard, one over UV-index grid leaves,
// plus a single cache over the shared helper R-tree's leaves. Grid
// caches are per-shard because each is generation-invalidated against
// ONE index's mutation counter; with a shared cache, shards mutating at
// different rates would flush each other's entries.
type batchState struct {
	mu     sync.Mutex
	caches []*core.LeafCache
	rt     *rtree.LeafCache
	cap    int
	// scratch pools *core.QueryScratch across batch workers and batch
	// calls: candidate ids, fetched candidates, object decode buffers
	// and the probability-integration vectors are all reused, so a
	// steady-state batched PNN allocates only its answer slice.
	scratch sync.Pool
}

// getScratch hands one worker a query scratch (fresh on first use).
func (s *batchState) getScratch() *core.QueryScratch {
	if sc, ok := s.scratch.Get().(*core.QueryScratch); ok {
		return sc
	}
	return &core.QueryScratch{}
}

// putScratch returns a scratch to the pool once the query's results
// have been copied out.
func (s *batchState) putScratch(sc *core.QueryScratch) { s.scratch.Put(sc) }

// cachesFor returns the persistent caches for the requested size in one
// critical section, (re)building them when the size (or shard count)
// changes. Size ≤ 0 returns nils (no caching); a nil slice indexes as a
// nil cache through cacheAt.
func (s *batchState) cachesFor(size, shards int) ([]*core.LeafCache, *rtree.LeafCache) {
	if size <= 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.caches) != shards || s.cap != size {
		s.caches = make([]*core.LeafCache, shards)
		for i := 0; i < shards; i++ {
			s.caches[i] = core.NewLeafCache(size)
		}
		s.rt = rtree.NewLeafCache(size)
		s.cap = size
	}
	return s.caches, s.rt
}

// cachesGridFor returns just the per-shard grid leaf caches.
func (s *batchState) cachesGridFor(size, shards int) []*core.LeafCache {
	c, _ := s.cachesFor(size, shards)
	return c
}

// cacheRTreeFor returns just the shared helper R-tree leaf cache.
func (s *batchState) cacheRTreeFor(size, shards int) *rtree.LeafCache {
	_, rt := s.cachesFor(size, shards)
	return rt
}

// LeafCacheStats aggregates the hit/miss counters of the DB's
// persistent per-shard grid leaf caches — the batch (and bulk-advance)
// fast-path economy signal the metrics layer exposes. All zeros until a
// batch has run with BatchOptions.CacheSize > 0; counters restart when
// the caches are rebuilt (cache-size or shard-count change).
func (db *DB) LeafCacheStats() (hits, misses int64) {
	db.batch.mu.Lock()
	defer db.batch.mu.Unlock()
	for _, c := range db.batch.caches {
		h, m := c.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// BufferPoolStats is the serving-side memory economy snapshot: the
// leaf-cache (buffer pool) hit/miss/eviction counters for the UV-index
// grid and the helper R-tree, plus the pager-level I/O and footprint
// totals summed across the object store, every shard index and the
// R-tree. The metrics layer samples it into gauges.
type BufferPoolStats struct {
	LeafHits       int64 // UV-index leaf cache hits
	LeafMisses     int64
	LeafEvictions  int64
	RTreeHits      int64 // helper R-tree leaf cache hits
	RTreeMisses    int64
	RTreeEvictions int64
	PagerReads     int64 // page reads across all pagers
	PagerWrites    int64
	DiskBytes      int64 // simulated disk footprint across all pagers
	VacuumedBytes  int64 // cumulative storage reclaimed by DB.Vacuum

	// Out-of-core footprint (all zero for an in-heap database): bytes
	// of snapshot sections served straight off the mapped file, how
	// many of those are resident in physical memory right now
	// (ResidentKnown false when the mincore probe is unsupported), and
	// the heap bytes of the append-only COW tails.
	MappedBytes   int64
	ResidentBytes int64
	ResidentKnown bool
	TailBytes     int64
}

// BufferPoolStats returns a snapshot of the buffer-pool counters.
func (db *DB) BufferPoolStats() BufferPoolStats {
	var st BufferPoolStats
	db.batch.mu.Lock()
	for _, c := range db.batch.caches {
		h, m := c.Stats()
		st.LeafHits += h
		st.LeafMisses += m
		st.LeafEvictions += c.Evictions()
	}
	if rt := db.batch.rt; rt != nil {
		st.RTreeHits, st.RTreeMisses = rt.Stats()
		st.RTreeEvictions = rt.Evictions()
	}
	db.batch.mu.Unlock()
	st.ResidentKnown = true
	for _, pg := range db.pagers() {
		st.PagerReads += pg.Reads()
		st.PagerWrites += pg.Writes()
		st.DiskBytes += pg.BytesOnDisk()
		if fs, ok := pg.Store().(*pager.FileStore); ok {
			st.MappedBytes += int64(fs.PageSize()) * int64(fs.BasePages())
			res, known := fs.Resident()
			st.ResidentBytes += res
			st.ResidentKnown = st.ResidentKnown && known
			st.TailBytes += fs.TailBytes()
		}
	}
	st.VacuumedBytes = db.vacuumed.Load()
	return st
}

// DropCaches advises every mmap-backed section out of the OS page
// cache — the cold-start / resident-set-cap lever of the out-of-core
// harness. Live pages refault from the snapshot file on their next
// read; an in-heap database is unaffected (returns 0). Safe
// concurrently with queries.
func (db *DB) DropCaches() int64 {
	var n int64
	for _, pg := range db.pagers() {
		if fs, ok := pg.Store().(*pager.FileStore); ok {
			n += int64(fs.DropCaches())
		}
	}
	return n
}

// pagers snapshots every pager serving the database: the object store,
// each shard index and the helper R-tree.
func (db *DB) pagers() []*pager.Pager {
	lo := db.lo()
	out := make([]*pager.Pager, 0, len(lo.shards)+2)
	out = append(out, db.store.Pager())
	for i := range lo.shards {
		out = append(out, lo.epAt(i).index.Pager())
	}
	out = append(out, db.rtree().Pager())
	return out
}

// Vacuum reclaims the storage behind freed page slots across every
// pager: heap buffers of freed slots are dropped for the GC, and dead
// extents of an mmap-backed snapshot are advised out of the OS page
// cache. Safe concurrently with queries — the frees themselves already
// ran post-grace through the epoch domain, Vacuum only releases the
// storage they left behind. Returns the total bytes reclaimed. The
// maintenance controller calls it every tick.
func (db *DB) Vacuum() int64 {
	var n int64
	for _, pg := range db.pagers() {
		n += pg.Vacuum()
	}
	db.vacuumed.Add(n)
	return n
}

// cacheAt indexes a possibly-nil cache slice.
func cacheAt(caches []*core.LeafCache, i int) *core.LeafCache {
	if caches == nil {
		return nil
	}
	return caches[i]
}

// runBatch executes fn(i) for i in [0, n) on a bounded worker pool,
// feeding indexes in the given order (nil = natural). On failure it
// returns the lowest-indexed error recorded, wrapped with that index;
// since the whole batch's results are discarded on any error, queries
// not yet started are skipped once a failure is seen. Per-index results
// are written by fn into caller-owned positional slices, so the output
// order is deterministic and identical to a sequential loop whatever
// the dispatch order.
func runBatch(n, workers int, order []int, fn func(i int) error) error {
	return runPool(n, workers, order, "query", fn)
}

// runPool is the bounded worker pool behind runBatch (and CompactAll);
// label names one unit of work in the wrapped error ("query 3: …",
// "shard 1: …").
func runPool(n, workers int, order []int, label string, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	feed := func(emit func(int)) {
		if order == nil {
			for i := 0; i < n; i++ {
				emit(i)
			}
			return
		}
		for _, i := range order {
			emit(i)
		}
	}
	errs := make([]error, n)
	if workers <= 1 {
		failed := false
		feed(func(i int) {
			if failed {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed = true
			}
		})
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
		feed(func(i int) { next <- i })
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

// batchRoute pins the layout, every shard's epoch and the helper R-tree
// once for a whole batch and resolves per-point routing: each point
// scatters to its owning shard's index and per-shard leaf cache, and
// the positional result slots gather the answers back in request order.
type batchRoute struct {
	db   *DB
	lo   *shardLayout
	eps  []*indexEpoch
	tree *rtree.Tree
}

func (db *DB) route() batchRoute {
	lo := db.lo()
	return batchRoute{db: db, lo: lo, eps: lo.epochs(), tree: db.rtree()}
}

// plan routes a whole batch in one pass: every point is
// domain-validated in REQUEST order (so the "error of the lowest
// failing query" contract holds whatever the dispatch order) and
// resolved to its owning shard exactly once. It returns the per-point
// owners and a dispatch order grouping the points by owning shard
// (stable within a shard; nil when one shard makes grouping
// pointless). Feeding the worker pool shard-by-shard keeps one shard's
// leaf pages hot in its cache instead of diluting every shard's
// working set across all workers — the server's batch opcodes get this
// for free since they dispatch through here.
func (r batchRoute) plan(qs []Point) (owner, order []int, err error) {
	owner = make([]int, len(qs))
	nsh := len(r.lo.shards)
	counts := make([]int, nsh+1)
	for i, q := range qs {
		if err := checkDomain(r.lo, r.db.domain, q); err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		si := r.lo.shardIdx(q)
		owner[i] = si
		counts[si+1]++
	}
	if nsh <= 1 || len(qs) <= 1 {
		return owner, nil, nil
	}
	for s := 1; s < len(counts); s++ {
		counts[s] += counts[s-1]
	}
	order = make([]int, len(qs))
	for i := range qs { // stable counting sort by shard
		order[counts[owner[i]]] = i
		counts[owner[i]]++
	}
	return owner, order, nil
}

// BatchNN answers N probabilistic nearest-neighbor queries with a
// worker pool, one grid lookup per point, scatter-gathered by shard
// (points are dispatched grouped by owning shard, which keeps per-shard
// leaf caches hot; results are positional, so the grouping is
// invisible). Results are identical to N sequential PNN calls in query
// order; on any failure the error of the lowest failing query is
// returned and the results are discarded.
//
// Like the single-point queries, batches run lock-free against every
// mutation, including Insert and Delete (copy-on-write snapshots; see
// the DB locking notes).
func (db *DB) BatchNN(qs []Point, opts *BatchOptions) ([][]Answer, error) {
	return db.batchPNN(qs, opts, nil)
}

// batchPNN is the routed PNN loop behind BatchNN, BatchTopKPNN and
// BatchThresholdNN: each point's full PNN answer passes through keep
// (nil keeps it whole) before it is stored.
func (db *DB) batchPNN(qs []Point, opts *BatchOptions, keep func([]Answer) []Answer) ([][]Answer, error) {
	t := db.egc.Pin() // one pin covers every worker's page reads
	defer db.egc.Unpin(t)
	rt := db.route() // one layout + epoch set for the whole batch
	owner, order, err := rt.plan(qs)
	if err != nil {
		return nil, err
	}
	caches := db.batch.cachesGridFor(opts.cacheSize(), len(rt.eps))
	out := make([][]Answer, len(qs))
	err = runBatch(len(qs), opts.workers(), order, func(i int) error {
		si := owner[i]
		sc := db.batch.getScratch()
		answers, _, err := rt.eps[si].index.PNNWith(qs[i], cacheAt(caches, si), sc)
		db.batch.putScratch(sc)
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
// R-tree, so the batch shares one R-tree leaf cache.
func (db *DB) BatchOrderK(qs []Point, k int, opts *BatchOptions) ([][]int32, error) {
	t := db.egc.Pin() // one pin covers every worker's page reads
	defer db.egc.Unpin(t)
	rt := db.route()
	cache := db.batch.cacheRTreeFor(opts.cacheSize(), len(rt.eps))
	out := make([][]int32, len(qs))
	err := runBatch(len(qs), opts.workers(), nil, func(i int) error {
		ids, err := db.possibleKNN(rt.tree, qs[i], k, cache) // k-NN accepts out-of-domain points
		out[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BatchPossibleKNN answers N possible-k-NN queries from the order-k
// grid with a worker pool and the index's persistent leaf cache —
// the grid-served counterpart of DB.BatchOrderK. Like PossibleKNN, it
// errors once the database has mutated past the grid's snapshot.
func (ix *OrderKIndex) BatchPossibleKNN(qs []Point, opts *BatchOptions) ([][]int32, error) {
	if err := ix.fresh(); err != nil {
		return nil, err
	}
	cache := cacheAt(ix.batch.cachesGridFor(opts.cacheSize(), 1), 0)
	out := make([][]int32, len(qs))
	err := runBatch(len(qs), opts.workers(), nil, func(i int) error {
		ids, _, err := ix.inner.PossibleKNNCached(qs[i], cache)
		out[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
