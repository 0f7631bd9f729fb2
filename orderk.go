package uvdiagram

import (
	"errors"
	"fmt"
	"io"

	"uvdiagram/internal/core"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/wire"
)

// OrderKIndex is an order-k UV-index: an adaptive grid over the ORDER-k
// UV-cells, the regions where each object can be among the k nearest
// neighbors — the k-th order Voronoi generalization ([30]) the paper
// lists as future work. It answers possible-k-NN queries exactly with
// one point descent, the k-NN analogue of the UV-index PNN path.
type OrderKIndex struct {
	db       *DB
	inner    *core.UVIndex
	k        int
	built    BuildStats
	hasBuilt bool // false for loaded indexes: the stream carries no build stats
	// snap pins the database state the order-k grid was built over: a
	// Compact (a new state) or an incremental Insert/Delete (a shard
	// index mutation) makes this grid stale — its leaf lists could miss
	// new objects or still list deleted ones — so queries refuse to
	// answer rather than be silently wrong.
	snap genSnap
}

// NewOrderKIndex builds an order-k index over the database's objects
// (k ≥ 1; k = 1 reproduces the standard UV-diagram organization). The
// index is independent of the DB's primary UV-index and shares its
// object store and helper R-tree.
//
// The index is a SNAPSHOT: after any Insert, Delete or
// Compact on the database, its queries return an error and it must be
// rebuilt with NewOrderKIndex (DB.PossibleKNN/BatchOrderK always track
// the live population and need no rebuild).
func (db *DB) NewOrderKIndex(k int) (*OrderKIndex, error) {
	if k < 1 {
		return nil, fmt.Errorf("uvdiagram: order-k index needs k ≥ 1, got %d", k)
	}
	// The shared helper R-tree covers the full live population; the
	// order-k grid itself spans the whole domain and is not sharded. The
	// build reads the shared tree's pages, so it pins the reclaim epoch
	// (the finished grid owns its pages and its queries need no pin).
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	st := db.state()
	snap := st.genSnap() // before the build: a write during it leaves the grid stale
	ix, stats, err := core.BuildOrderK(db.store, db.domain, st.tree, k, db.bopts)
	if err != nil {
		return nil, err
	}
	return &OrderKIndex{db: db, inner: ix, k: k, built: stats, hasBuilt: true, snap: snap}, nil
}

// ErrStaleSnapshot is the sentinel matched by errors.Is when a
// snapshot index (an order-k grid) refuses a query because the
// database has mutated since it was built. The concrete error is a
// *StaleSnapshotError carrying the order.
var ErrStaleSnapshot = errors.New("uvdiagram: snapshot index is stale")

// StaleSnapshotError reports a query against an order-k snapshot whose
// database has since mutated (Insert, Delete or Compact); the
// grid's leaf lists could miss new objects or still list deleted ones,
// so queries refuse to answer rather than be silently wrong. It
// matches ErrStaleSnapshot under errors.Is.
type StaleSnapshotError struct {
	K int // order of the stale index
}

// Error implements error.
func (e *StaleSnapshotError) Error() string {
	return fmt.Sprintf("uvdiagram: order-%d index is stale (database mutated since it was built); rebuild it with NewOrderKIndex", e.K)
}

// Is reports target == ErrStaleSnapshot, making the sentinel checkable
// through errors.Is without exposing the concrete type.
func (e *StaleSnapshotError) Is(target error) bool { return target == ErrStaleSnapshot }

// fresh errors when the database has mutated since the order-k grid
// was built.
func (ix *OrderKIndex) fresh() error {
	if ix.db.state().genSnap() != ix.snap {
		return &StaleSnapshotError{K: ix.k}
	}
	return nil
}

// K returns the order of the index.
func (ix *OrderKIndex) K() int { return ix.k }

// BuildStats returns the construction statistics of the order-k index.
// ok is false for an index re-opened with LoadOrderKIndex: the saved
// stream does not carry build stats, and reporting zeros would read as
// an (impossibly) free construction.
func (ix *OrderKIndex) BuildStats() (stats BuildStats, ok bool) { return ix.built, ix.hasBuilt }

// IndexStats returns the shape of the order-k grid.
func (ix *OrderKIndex) IndexStats() core.IndexStats { return ix.inner.Stats() }

// PossibleKNN returns the IDs of every object with non-zero probability
// of being among the k nearest neighbors of q, sorted ascending,
// answered exactly from the order-k grid. It errors if the database has
// mutated since the grid was built (see NewOrderKIndex).
func (ix *OrderKIndex) PossibleKNN(q Point) ([]int32, QueryStats, error) {
	if err := ix.fresh(); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.possibleKNN(q)
}

// possibleKNN is the grid descent behind PossibleKNN,
// BatchPossibleKNN and KNNProbs, after the freshness check; a point
// outside the domain fails with a *DomainError.
func (ix *OrderKIndex) possibleKNN(q Point) ([]int32, QueryStats, error) {
	if err := checkDomain(ix.db.domain, q); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.inner.PossibleKNN(q)
}

// Save serializes the order-k index structure (the stream carries the
// cell order; reload it with LoadOrderKIndex against the same DB).
func (ix *OrderKIndex) Save(w io.Writer) error {
	var b wire.Buffer
	ix.inner.Save(&b)
	_, err := w.Write(b.Bytes())
	return err
}

// LoadOrderKIndex re-opens an order-k index previously written with
// Save, against the database whose objects it was built over. Like
// NewOrderKIndex, the loaded grid snapshots the database's CURRENT
// state and goes stale on the next mutation.
func LoadOrderKIndex(r io.Reader, db *DB) (*OrderKIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("uvdiagram: reading order-k index: %w", err)
	}
	inner, err := core.LoadUVIndex(wire.NewReader(data), db.store)
	if err != nil {
		return nil, err
	}
	if inner.OrderK() < 1 {
		return nil, fmt.Errorf("uvdiagram: loaded index has invalid order %d", inner.OrderK())
	}
	// core.LoadUVIndex already validates the stream against the store's
	// object population (count and id range); the domain is the
	// remaining degree of freedom. A grid built over a different domain
	// would route every descent through the wrong quadrant geometry and
	// answer queries silently wrong, so refuse it here.
	if d := inner.Domain(); d != db.domain {
		return nil, fmt.Errorf("uvdiagram: loaded order-%d index was built over domain [%g,%g]x[%g,%g], database domain is [%g,%g]x[%g,%g]",
			inner.OrderK(), d.Min.X, d.Max.X, d.Min.Y, d.Max.Y,
			db.domain.Min.X, db.domain.Max.X, db.domain.Min.Y, db.domain.Max.Y)
	}
	return &OrderKIndex{db: db, inner: inner, k: inner.OrderK(), snap: db.state().genSnap()}, nil
}

// KNNProbs returns possible-k-NN answers with Monte-Carlo rank
// probabilities: for each answer object, the estimated probability that
// it is among the k nearest neighbors of q. Estimates across the full
// object set sum to exactly k; only answers (non-zero possibility) are
// returned.
func (ix *OrderKIndex) KNNProbs(q Point, trials int, seed int64) ([]Answer, QueryStats, error) {
	if err := ix.fresh(); err != nil {
		return nil, QueryStats{}, err
	}
	ids, st, err := ix.possibleKNN(q)
	if err != nil {
		return nil, st, err
	}
	if trials <= 0 {
		trials = 10000
	}
	// All() is live-only, so the Monte-Carlo ranking never competes
	// against tombstoned objects; map positional estimates back by ID.
	objs := ix.db.store.All()
	ps := prob.KNNProbsMC(objs, q, ix.k, trials, seed)
	byID := make(map[int32]float64, len(objs))
	for i := range objs {
		byID[objs[i].ID] = ps[i]
	}
	answers := make([]Answer, 0, len(ids))
	for _, id := range ids {
		answers = append(answers, Answer{ID: id, Prob: byID[id]})
	}
	return answers, st, nil
}
