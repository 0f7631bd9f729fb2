package derive

import "math"

// Filler is the dimension-specific half of a Table: the engine that
// knows how to build one constraint and evaluate it along the table's
// directions.
type Filler interface {
	// FillRow evaluates candidate j's radial bound along every direction
	// into row (+Inf where the UV-edge sets none) and reports false when
	// j contributes no UV-edge at all (overlapping uncertainty regions).
	// idx is the row's index, under which the engine may keep per-row
	// state of its own: from each Begin, the rows that get an edge are
	// numbered 0, 1, 2, … in fill order and keep their number until the
	// next Begin.
	FillRow(j int32, idx int, row []float64) bool
}

// Table is one derivation worker's cache of radial-bound rows for the
// object being derived. The bound of one candidate along one direction
// is a pure function of the two uncertainty regions, so the fixpoint
// rounds — whose candidate sets largely overlap — share one evaluation
// per (candidate, direction) pair. Rows are pooled across objects and
// invalidated by a generation stamp, so a long-lived table allocates
// nothing in steady state. A table is owned by one goroutine.
type Table struct {
	// Exit is the distance to the domain boundary per direction from the
	// current object's center. Begin sizes it; the engine fills it.
	Exit []float64

	idx   []int32     // object id → row index (−1 = no edge); valid when stamp matches gen
	stamp []uint32    // generation stamp per object id
	gen   uint32      // the current object's generation
	rows  [][]float64 // pooled bound rows
	used  int         // rows in use for the current object
	act   []int32     // rows of the last Activate call, in candidate order
	vals  []float64   // Fold's output
	kth   []float64   // Fold's k-smallest buffer
}

// Begin starts a new object over an id space of n objects and dirs
// directions: every cached row is dropped by bumping the generation.
func (t *Table) Begin(n, dirs int) {
	if len(t.idx) < n {
		t.idx = make([]int32, n)
		t.stamp = make([]uint32, n)
		t.gen = 0
	}
	t.gen++
	if t.gen == 0 { // generation counter wrapped: drop every stamp
		clear(t.stamp)
		t.gen = 1
	}
	t.used = 0
	t.act = t.act[:0]
	if cap(t.Exit) < dirs {
		t.Exit = make([]float64, dirs)
		t.vals = make([]float64, dirs)
	}
	t.Exit = t.Exit[:dirs]
	t.vals = t.vals[:dirs]
}

// Activate makes the rows of the given candidates the active set,
// filling each candidate's row through f on first touch. Candidates
// without a UV-edge are skipped.
func (t *Table) Activate(ids []int32, f Filler) {
	t.act = t.act[:0]
	for _, j := range ids {
		if t.stamp[j] != t.gen {
			t.stamp[j] = t.gen
			t.idx[j] = t.fill(j, f)
		}
		if idx := t.idx[j]; idx >= 0 {
			t.act = append(t.act, idx)
		}
	}
}

// fill evaluates candidate j into the next pooled row; the row goes
// back to the pool when j turns out to have no edge.
func (t *Table) fill(j int32, f Filler) int32 {
	if t.used == len(t.rows) {
		t.rows = append(t.rows, nil)
	}
	row := t.rows[t.used]
	if cap(row) < len(t.Exit) {
		row = make([]float64, len(t.Exit))
	}
	row = row[:len(t.Exit)]
	t.rows[t.used] = row
	if !f.FillRow(j, t.used, row) {
		return -1
	}
	t.used++
	return int32(t.used - 1)
}

// Active returns the row indices of the last Activate call, in
// candidate order. The slice is the table's.
func (t *Table) Active() []int32 { return t.act }

// Fold returns, per direction, the extent of the order-k region bounded
// by the domain and the active rows: the smaller of the domain exit and
// the k-th smallest active bound (the domain exit alone where fewer
// than k rows are active; +Inf bounds sort behind every finite one).
// k ≤ 1 is the plain minimum. The slice is the table's, valid until the
// next Fold or Begin.
func (t *Table) Fold(k int) []float64 {
	vals, rows := t.vals, t.rows
	if k <= 1 {
		copy(vals, t.Exit)
		for _, idx := range t.act {
			for i, b := range rows[idx] {
				if b < vals[i] {
					vals[i] = b
				}
			}
		}
		return vals
	}
	if cap(t.kth) < k {
		t.kth = make([]float64, 0, k)
	}
	for i, exit := range t.Exit {
		kth := t.kth[:0]
		for _, idx := range t.act {
			kth = PushK(kth, k, rows[idx][i])
		}
		vals[i] = KthOr(kth, k, exit)
	}
	return vals
}

// PushK folds b into kth, the ascending buffer of the (at most) k
// smallest values pushed so far.
func PushK(kth []float64, k int, b float64) []float64 {
	if len(kth) < k {
		kth = append(kth, b)
	} else if b < kth[k-1] {
		kth[k-1] = b
	} else {
		return kth
	}
	for j := len(kth) - 1; j > 0 && kth[j] < kth[j-1]; j-- {
		kth[j], kth[j-1] = kth[j-1], kth[j]
	}
	return kth
}

// KthOr returns the smaller of exit and the k-th smallest value pushed
// into kth, or exit alone when fewer than k were pushed.
func KthOr(kth []float64, k int, exit float64) float64 {
	if len(kth) < k {
		return exit
	}
	return math.Min(exit, kth[k-1])
}
