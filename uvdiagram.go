// Package uvdiagram is a library for nearest-neighbor search over
// uncertain spatial data, reproducing "UV-Diagram: A Voronoi Diagram
// for Uncertain Data" (Cheng, Xie, Yiu, Chen, Sun — ICDE 2010).
//
// An uncertain object is a circular uncertainty region plus a radial
// probability histogram. A Probabilistic Nearest-Neighbor query (PNN)
// at a point q returns every object with non-zero probability of being
// the nearest neighbor of q together with those probabilities.
//
// The central structure is the UV-diagram: the plane decomposed by
// UV-cells, where the UV-cell of an object is exactly the region in
// which it can be a nearest neighbor. Cells are bounded by hyperbolic
// UV-edges and are too expensive to materialize, so the library indexes
// them by their candidate reference objects (cr-objects) in an adaptive
// quad-tree, the UV-index, built in polynomial time.
//
// Basic usage:
//
//	objs := []uvdiagram.Object{ ... }
//	db, err := uvdiagram.Build(objs, uvdiagram.SquareDomain(10000), nil)
//	answers, stats, err := db.PNN(uvdiagram.Pt(4021, 977))
//
// Each answer carries an object ID and its qualification probability.
// The DB also serves the nearest-neighbor pattern queries of the paper
// (UV-cell extent retrieval and UV-partition density retrieval) and an
// R-tree branch-and-prune baseline for comparison.
//
// Beyond the paper's evaluation, the package implements its stated
// future-work directions: probabilistic reverse nearest-neighbor
// queries (RNN, PossibleRNN, PossibleRNNUncertain), order-k UV-diagrams
// and possible-k-NN (NewOrderKIndex, PossibleKNN), continuous queries
// for moving clients (NewContinuousPNN), full dynamic updates
// (incremental Insert and Delete with non-blocking background
// compaction — Compact swaps a freshly built index in atomically, so
// queries are never paused by maintenance), persistence
// (SaveSnapshot/Open),
// and a full three-dimensional UV-diagram (Build3/DB3).
//
// For streamed workloads the batch engine answers many points per call
// with a worker pool and pooled query buffers: BatchNN, BatchOrderK,
// BatchTopKPNN and BatchThresholdNN return results identical to the
// equivalent sequence of single-point queries. A pipelined TCP server
// and client for a built database live in internal/server with the
// cmd/uvserver and cmd/uvclient front ends; see README.md for the
// protocol and its batch opcodes.
//
// With Options.Shards > 1 the engine partitions the domain into a grid
// of spatial shards, each owning an independent sub-grid UV-index (see
// shard.go). The shard indexes, the helper R-tree and the constraint
// registry form one database state behind one atomic pointer. Point
// queries route to the owning shard lock-free; builds and compactions
// parallelize across shards, and a mutation's leaf surgery touches only
// the shards the mutated cells reach. Build cuts the grid into equal strips; Open
// keeps the cuts stored in the file. Answers are identical to the
// single-shard engine bit for bit, whatever the cuts.
package uvdiagram

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/epoch"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Re-exported core types. The aliases make the public API self-
// contained without duplicating the implementations.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (domains, query ranges).
	Rect = geom.Rect
	// Circle is a disk (uncertainty regions).
	Circle = geom.Circle
	// Object is an uncertain object: a circular uncertainty region and
	// a radial histogram pdf.
	Object = uncertain.Object
	// PDF is a radial probability histogram over the unit disk.
	PDF = uncertain.HistogramPDF
	// Answer is a PNN result: object ID and qualification probability.
	Answer = core.Answer
	// QueryStats carries per-query component timings and I/O counts.
	QueryStats = core.QueryStats
	// BuildStats carries construction timings, pruning ratios and index
	// shape.
	BuildStats = core.BuildStats
	// Partition is a UV-partition query result: a region with its
	// nearest-neighbor candidate count and density.
	Partition = core.Partition
	// Strategy selects the index construction pipeline.
	Strategy = core.Strategy
)

// Construction strategies (Section VI of the paper).
const (
	// IC: I- and C-pruning, then index cr-objects directly (fastest;
	// the paper's recommendation and the default).
	IC = core.StrategyIC
	// ICR: like IC but refines cr-objects to exact r-objects first.
	ICR = core.StrategyICR
	// Basic: exact UV-cells against all objects, no pruning (only
	// sensible for small datasets; the paper's 97-hour baseline).
	Basic = core.StrategyBasic
)

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// SquareDomain returns the square domain [0,side]².
func SquareDomain(side float64) Rect { return geom.Square(side) }

// NewObject builds an uncertain object with a circular uncertainty
// region centered at (x, y) with the given radius. A nil pdf defaults
// to the uniform distribution; use GaussianPDF() for the paper's
// default.
func NewObject(id int32, x, y, radius float64, pdf *PDF) Object {
	return uncertain.New(id, Circle{C: Pt(x, y), R: radius}, pdf)
}

// NewObjectFromPolygon builds an uncertain object from a non-circular
// uncertainty region: the polygon is replaced by its minimum enclosing
// circle, the conversion of Section III-C.
func NewObjectFromPolygon(id int32, vertices []Point, pdf *PDF) (Object, error) {
	return uncertain.FromPolygon(id, vertices, pdf)
}

// GaussianPDF returns the paper's default uncertainty pdf: 20 histogram
// bars of a circular Gaussian with σ = diameter/6.
func GaussianPDF() *PDF { return uncertain.PaperGaussian() }

// UniformPDF returns a uniform pdf over the uncertainty region with the
// paper's 20 histogram bars.
func UniformPDF() *PDF { return uncertain.Uniform(uncertain.DefaultBins) }

// Options tune index construction; zero values select the paper's
// defaults (Tθ=1, 4 KB pages, k=300 seed candidates, strategy IC). Its
// other parameters are fixed at the paper's values: M=4000 non-leaf
// nodes, 8 seed sectors, R-tree fanout 100.
type Options struct {
	Strategy   Strategy
	SplitTheta float64 // Tθ
	PageSize   int
	SeedK      int
	// Workers is the number of goroutines deriving objects' cr-sets;
	// results are identical at any count. Build reads 0 as
	// runtime.GOMAXPROCS (1 = sequential). Compact, which re-derives
	// beside live readers, uses the value literally: 0 and 1 are both
	// sequential.
	Workers int
	// Shards partitions the domain into a grid of spatial shards, each
	// with its own sub-grid UV-index.
	// Point queries route to the owning shard; builds and compactions
	// parallelize across shards. 0 or 1 keeps the single-shard engine.
	// Answers are independent of the shard count.
	Shards int
	// Pager selects the page-store backend Open uses for a page-image
	// snapshot: "mmap" (or empty, the default) maps the file
	// read-only and serves zero-copy page reads off the mapping — the
	// out-of-core mode; "heap" copies the page images into in-heap
	// pagers and closes the file. Build ignores it, as does Open of a
	// legacy version ≤ 4 stream (both are always in-heap). Answers are identical either way.
	Pager string
}

func (o *Options) shardCount() (int, error) {
	if o == nil {
		return 1, nil
	}
	return validateShards(o.Shards)
}

// Pager backend names (Options.Pager / DB.PagerMode).
const (
	pagerModeHeap = "heap"
	pagerModeMmap = "mmap"
)

func (o *Options) pagerMode() (string, error) {
	if o == nil || o.Pager == "" {
		return pagerModeMmap, nil
	}
	switch o.Pager {
	case pagerModeHeap, pagerModeMmap:
		return o.Pager, nil
	default:
		return "", fmt.Errorf("uvdiagram: unknown pager backend %q (want %q or %q)",
			o.Pager, pagerModeHeap, pagerModeMmap)
	}
}

func (o *Options) toBuildOptions() core.BuildOptions {
	b := core.DefaultBuildOptions()
	if o == nil {
		return b
	}
	b.Strategy = o.Strategy
	if o.SplitTheta > 0 {
		b.Index.SplitTheta = o.SplitTheta
	}
	if o.PageSize > 0 {
		b.Index.PageSize = o.PageSize
	}
	if o.SeedK > 0 {
		b.SeedK = o.SeedK
	}
	if o.Workers > 0 {
		b.Workers = o.Workers
	}
	return b
}

// dbState is one immutable generation of the database's index state:
// the shard indexes in layout order, the helper R-tree, the constraint
// registry and topology cache every shard shares, and the statistics of
// the construction pass that made them. The DB publishes it behind one
// atomic pointer. A query loads it once and uses it for its whole
// execution; Build, Open and Compact each construct a fresh state off
// to the side and publish it with one store, so a query never observes
// a torn (half-replaced) index set and is never blocked by a rebuild
// (RCU-style).
//
// Insert and Delete do not replace the state: they mutate its indexes,
// R-tree and registry in place, copy-on-write (see the DB locking
// notes), and each index counts its own mutations (UVIndex.Gen).
type dbState struct {
	indexes []*core.UVIndex // one per shard, in layout order
	// tree is the helper R-tree over the full live population (pruning,
	// k-NN and RNN retrieval are global no matter which shard runs
	// them).
	tree *rtree.Tree
	// cr is the engine-wide constraint registry shared by every shard's
	// index (see core.CRState).
	cr *core.CRState
	// topo is the incremental topology registry riding alongside cr: per
	// object, which cr-set members actually shape its UV-cell boundary
	// (core.Topology). It decides which delete dependents re-derive and
	// which keep their stripped representation.
	topo *core.Topology
	// built holds the statistics of the construction pass (Build, Open,
	// Compact) that made this state.
	built BuildStats
	// gen numbers the state: 0 after Build or Open, one more at every
	// Compact. Long-lived sessions (ContinuousPNN) and snapshot indexes
	// (OrderKIndex) compare it to detect that the state they captured
	// has been replaced.
	gen uint64
}

// DB is a built UV-diagram database: one or more spatially sharded
// UV-indexes, the object store, the engine-wide constraint registry and
// the shared helper R-tree (also the comparison baseline).
//
// # Locking
//
// One store lock (smu) guards everything a write changes: the object
// store and dense-id allocation, and the current state's constraint
// registry, topology cache, helper R-tree and shard leaf structures.
// Every writer — Insert, Delete/BatchDelete, Compact — holds it
// EXCLUSIVELY; SaveSnapshot holds it SHARED, so a save sees
// the state between two writes and never a write half done.
//
// Queries take NO locks against ANY mutation — including Insert and
// Delete. The state has one publication point, the cur pointer, which
// only Build, Open and Compact store. Within a state every mutated
// structure is copy-on-write behind an atomic pointer (the store's
// population view, the helper R-tree's header, each shard index's tree
// snapshot), so smu only serializes WRITERS against each other, and a
// reader never blocks on (or is blocked by) it. Readers see each
// mutation atomically through a fixed publication order — on delete
// the R-tree shrinks first, then the leaf tables publish per shard,
// then the store tombstones; on insert the store appends first, then
// the R-tree and leaf tables — and a query that snapshots the store
// view BEFORE loading a tree (see core's pnn) observes exactly the pre-
// or post-mutation answer, never a hybrid. Replaced index pages are
// reclaimed through the DB's epoch domain (egc): queries pin it for
// their page reads, and a page slot is reused only after every reader
// pinned before the swap has finished.
type DB struct {
	store  *uncertain.Store
	domain Rect
	bopts  core.BuildOptions
	// cur is the published database state (see dbState). Build and Open
	// store it before the DB is returned; afterwards only Compact
	// replaces it.
	cur atomic.Pointer[dbState]
	// egc is the epoch-based reclamation domain shared by the helper
	// R-tree and every shard index: queries pin it around page reads,
	// COW mutations retire replaced pages into it, and a page slot is
	// reused only once every reader pinned before the swap finished.
	egc *epoch.Domain
	// mstats counts mutation-path work (see MutationStats).
	mstats mutationCounters
	// layout is the shard layout (grid shape, cuts and shard
	// rectangles). Build and Open set it before the DB is returned;
	// nothing writes it afterwards.
	layout *shardLayout
	// smu is the store lock (see the locking notes above).
	smu     sync.RWMutex
	scratch sync.Pool // of *core.QueryScratch, shared by single, batch and baseline PNN (see queryScratch)
	// dscratch is the derivation scratch of the live mutation paths
	// (Insert, Delete re-derivation). Guarded by smu held exclusively —
	// exactly the sections that derive — so it is never shared.
	dscratch *core.DeriveScratch
	// compactHook, when set (tests only, before any concurrency
	// starts), is called by Compact once smu is held, before the
	// shadow build — the observation point that lets tests park a
	// rebuild inside its critical section and check that queries still
	// complete.
	compactHook func()
	// maintObs is the maintenance-event observer (DB.OnMaintenance),
	// fired synchronously from Compact.
	maintObs atomic.Pointer[func(MaintEvent)]
	// mapping is the snapshot file mapping the pagers of a database
	// opened with Open in mmap mode serve off; nil otherwise (Build,
	// heap-mode Open). See Close.
	mapping *pager.Mapping
}

// state returns the current database state.
func (db *DB) state() *dbState { return db.cur.Load() }

// PagerMode reports which page-store backend serves the database:
// "heap" (Build, heap-mode Open) or "mmap" (out-of-core Open). "mmap"
// means the database was opened off a snapshot mapping; it stays so
// after Compact has rebuilt the index and R-tree sections in the heap,
// which BufferPoolStats then counts as tail bytes.
func (db *DB) PagerMode() string {
	if db.mapping == nil {
		return pagerModeHeap
	}
	return pagerModeMmap
}

// Close releases the snapshot file mapping of an mmap-backed database.
// It must only be called once no queries or mutations are in flight:
// page reads served off the mapping fault after it is unmapped.
// Idempotent; a no-op for in-heap databases.
func (db *DB) Close() error {
	if db.mapping == nil {
		return nil
	}
	return db.mapping.Close()
}

// Build indexes the objects (dense IDs 0..n-1 required, every region a
// finite circle: see ErrInvalidObject) over the given domain. opts may
// be nil for the paper's defaults. The expensive
// per-object derivation runs once, on Options.Workers goroutines (0 =
// all cores, see Options.Workers); with Options.Shards > 1 the shard
// sub-grids are then built concurrently, one goroutine per shard, all
// feeding off one shared constraint registry.
func Build(objects []Object, domain Rect, opts *Options) (*DB, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("uvdiagram: no objects to index")
	}
	for _, o := range objects {
		if err := checkObject(o); err != nil {
			return nil, err
		}
	}
	nshards, err := opts.shardCount()
	if err != nil {
		return nil, err
	}
	store, err := uncertain.NewStore(objects, pager.New(pager.DefaultPageSize))
	if err != nil {
		return nil, err
	}
	bopts := opts.toBuildOptions()
	db := &DB{store: store, domain: domain, bopts: bopts, egc: epoch.NewDomain()}
	gx, gy := shardGrid(nshards)
	db.layout = newShardLayout(gx, gy, cuts(domain.Min.X, domain.Max.X, gx), cuts(domain.Min.Y, domain.Max.Y, gy))
	dopts := bopts // db.bopts keeps Workers literal for the background rebuilds
	if dopts.Workers == 0 {
		dopts.Workers = runtime.GOMAXPROCS(0)
	}
	st, err := db.rebuild(dopts, 0)
	if err != nil {
		return nil, fmt.Errorf("uvdiagram: %w", err)
	}
	db.cur.Store(st)
	return db, nil
}

// rebuild constructs a fresh state of generation gen from the live
// objects, off to the side: a bulk-loaded helper R-tree, one derivation
// of every constraint set on dopts.Workers goroutines, then every
// shard's sub-grid from that one registry, one goroutine per shard. The
// stats record the summed per-shard indexing CPU time, the aggregate
// index shape and the wall clock from the derivation on. On error (a
// page size no leaf page fits) nothing is returned.
func (db *DB) rebuild(dopts core.BuildOptions, gen uint64) (*dbState, error) {
	// A fresh tree: the bulk-load drops the slack delete churn left
	// behind, and keeps the derivation's simulated-disk reads off the
	// live tree's I/O accounting.
	tree := core.BuildHelperRTree(db.store, db.bopts.Fanout)
	tree.SetReclaimDomain(db.egc)
	t0 := time.Now()
	crSets, stats, err := core.DeriveCRSets(db.store, db.domain, tree, dopts)
	if err != nil {
		return nil, err
	}
	cr := core.NewCRState(crSets)
	rects := db.layout.shards
	indexes := make([]*core.UVIndex, len(rects))
	durs := make([]time.Duration, len(rects))
	err = runPool(len(rects), len(rects), "shard", func(i int) error {
		var err error
		indexes[i], durs[i], err = core.BuildRegionCR(db.store, rects[i], cr, 1, db.bopts.Index)
		return err
	})
	if err != nil {
		return nil, err
	}
	shapes := make([]core.IndexStats, len(indexes))
	for i, ix := range indexes {
		ix.SetReclaimDomain(db.egc)
		stats.IndexDur += durs[i]
		shapes[i] = ix.Stats()
	}
	stats.TotalDur = time.Since(t0)
	stats.Index = aggregateIndexStats(shapes)
	return &dbState{
		indexes: indexes,
		tree:    tree,
		cr:      cr,
		topo:    core.NewTopology(cr.Len(), db.bopts.RegionSamples),
		built:   stats,
		gen:     gen,
	}, nil
}

// Len returns the number of live (indexed, non-deleted) objects.
func (db *DB) Len() int { return db.store.Live() }

// NextID returns the ID the next Insert must carry. IDs are dense and
// never reused, so after deletions NextID exceeds Len.
func (db *DB) NextID() int32 { return int32(db.store.Len()) }

// Alive reports whether id names a live object.
func (db *DB) Alive(id int32) bool { return db.store.Alive(id) }

// Domain returns the indexed domain.
func (db *DB) Domain() Rect { return db.domain }

// Object returns object id (from memory; no I/O accounted). Deleted
// ids return an error.
func (db *DB) Object(id int32) (Object, error) {
	if !db.store.Alive(id) {
		return Object{}, fmt.Errorf("uvdiagram: unknown or deleted object %d", id)
	}
	return db.store.At(int(id)), nil
}

// BuildStats returns the statistics of the last full construction pass
// (Build, Open, Compact). With shards, phase durations
// are summed CPU time across shard builds and Index aggregates the
// shard sub-grids.
func (db *DB) BuildStats() BuildStats { return db.state().built }

// IndexStats returns the UV-index shape statistics, aggregated across
// shards (counts sum, depth is the maximum).
func (db *DB) IndexStats() core.IndexStats {
	indexes := db.state().indexes
	if len(indexes) == 1 {
		return indexes[0].Stats()
	}
	shapes := make([]core.IndexStats, len(indexes))
	for i, ix := range indexes {
		shapes[i] = ix.Stats()
	}
	return aggregateIndexStats(shapes)
}

// PNN answers a probabilistic nearest-neighbor query through the owning
// shard's UV-index (Section V-A).
func (db *DB) PNN(q Point) ([]Answer, QueryStats, error) {
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	if err := checkDomain(db.domain, q); err != nil {
		return nil, QueryStats{}, err
	}
	return db.pnnOn(db.state().indexes[db.layout.shardIdx(q)], q)
}

// mutationCounters are the DB's atomic mutation-path tallies.
type mutationCounters struct {
	inserts    atomic.Int64
	deletes    atomic.Int64
	dependents atomic.Int64
	rederived  atomic.Int64
	skipped    atomic.Int64
	repaired   atomic.Int64
}

// MutationStats reports the cumulative work of the incremental mutation
// paths since the database was built or loaded. The Rederived/Skipped
// split is the output-sensitivity signal: Skipped dependents kept their
// representation (minus the victims) with no derivation at all because
// no victim was tight for them (see core.Topology).
type MutationStats struct {
	Inserts    int64 // Insert calls applied
	Deletes    int64 // objects deleted (BatchDelete counts each victim)
	Dependents int64 // delete dependents examined
	Rederived  int64 // dependents re-derived (a victim was tight)
	Skipped    int64 // dependents kept with a stripped representation
	Repaired   int64 // cached cell profiles tightened in place on insert
}

// MutationStats returns a snapshot of the mutation counters.
func (db *DB) MutationStats() MutationStats {
	return MutationStats{
		Inserts:    db.mstats.inserts.Load(),
		Deletes:    db.mstats.deletes.Load(),
		Dependents: db.mstats.dependents.Load(),
		Rederived:  db.mstats.rederived.Load(),
		Skipped:    db.mstats.skipped.Load(),
		Repaired:   db.mstats.repaired.Load(),
	}
}

// ErrOutOfDomain is the sentinel every "query point outside the indexed
// domain" failure matches through errors.Is, whatever path produced it
// (single-point queries, batch routing, moving-query sessions,
// AdvanceAll error slots). Serving layers drop exactly the bad cursor by
// testing for it instead of string-matching error text.
var ErrOutOfDomain = errors.New("uvdiagram: query point outside domain")

// DomainError is the concrete out-of-domain error: the offending point
// and the domain it missed. errors.Is(err, ErrOutOfDomain) matches it;
// errors.As recovers the point for diagnostics.
type DomainError struct {
	Point  Point
	Domain Rect
}

// Error implements error.
func (e *DomainError) Error() string {
	return fmt.Sprintf("uvdiagram: query point %v outside domain %v", e.Point, e.Domain)
}

// Is makes every DomainError match the ErrOutOfDomain sentinel.
func (e *DomainError) Is(target error) bool { return target == ErrOutOfDomain }

// ErrInvalidObject is the sentinel every rejected object matches
// through errors.Is: Build and Insert refuse an object whose center is
// not a finite point or whose radius is negative or not finite, before
// it reaches the store, the R-tree or a derivation; PossibleRNNUncertain
// refuses such a query region.
var ErrInvalidObject = errors.New("uvdiagram: invalid object")

// checkObject rejects an object whose uncertainty region is not a
// finite circle; the error wraps ErrInvalidObject.
func checkObject(o Object) error {
	if !validCircle(o.Region) {
		return fmt.Errorf("%w %d: center %v, radius %v", ErrInvalidObject, o.ID, o.Region.C, o.Region.R)
	}
	return nil
}

// validCircle reports whether c has a finite center and a finite
// radius ≥ 0.
func validCircle(c Circle) bool {
	return finite(c.C.X) && finite(c.C.Y) && finite(c.R) && c.R >= 0
}

// checkStoredObjects rejects a reopened store holding a live object no
// Build or Insert would have accepted: not a finite circle, or centered
// outside the domain. Derivation relies on every live center lying in
// the domain (an empty seed sector's domain reach bounds where its
// objects can be).
func checkStoredObjects(store *uncertain.Store, domain Rect) error {
	for i, o := range store.Dense() {
		if !store.Alive(int32(i)) {
			continue
		}
		if err := checkObject(o); err != nil {
			return err
		}
		if !domain.Contains(o.Region.C) {
			return fmt.Errorf("object %d center %v outside domain %v", o.ID, o.Region.C, domain)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkDomain rejects query points outside the engine's domain, whatever
// its shard layout. Shared by the single-point and batch routing paths
// so their semantics can never drift apart. The returned error is a
// *DomainError, so it matches ErrOutOfDomain.
func checkDomain(domain Rect, q Point) error {
	if !domain.Contains(q) {
		return &DomainError{Point: q, Domain: domain}
	}
	return nil
}

// Partitions retrieves all UV-partitions (leaf regions) intersecting r
// with their nearest-neighbor densities (Section V-C), gathered from
// every shard r overlaps.
func (db *DB) Partitions(r Rect) []Partition {
	indexes := db.state().indexes
	if len(indexes) == 1 {
		parts, _ := indexes[0].Partitions(r)
		return parts
	}
	var out []Partition
	for i, ix := range indexes {
		if !db.layout.shards[i].Overlaps(r) {
			continue
		}
		parts, _ := ix.Partitions(r)
		out = append(out, parts...)
	}
	return out
}

// CellArea approximates the area of object id's UV-cell from the index
// (Section V-C, UV-cell retrieval), summing the shard-local areas of
// every shard the cell reaches.
func (db *DB) CellArea(id int32) (float64, error) {
	total := 0.0
	for _, ix := range db.state().indexes {
		a, err := ix.CellArea(id)
		if err != nil {
			return 0, err
		}
		total += a
	}
	return total, nil
}

// CellRegions returns the leaf regions overlapping object id's UV-cell,
// its displayable approximate extent, concatenated across shards.
func (db *DB) CellRegions(id int32) []Rect {
	indexes := db.state().indexes
	if len(indexes) == 1 {
		return indexes[0].CellRegions(id)
	}
	var out []Rect
	for _, ix := range indexes {
		out = append(out, ix.CellRegions(id)...)
	}
	return out
}

// Index exposes the underlying UV-index for advanced use (experiment
// harness, visualization). With shards it is shard 0's sub-grid; the
// others are not exposed (ShardStats reports their shapes). The pointer
// is the CURRENT state's index; a Compact replaces it, so hold the
// result only briefly.
func (db *DB) Index() *core.UVIndex { return db.state().indexes[0] }

// RTree exposes the shared helper R-tree (the query baseline of
// Figure 6), which covers the full live population. Like Index, it is
// the current state's pointer; Compact replaces it.
func (db *DB) RTree() *rtree.Tree { return db.state().tree }

// Store exposes the underlying object store.
func (db *DB) Store() *uncertain.Store { return db.store }
