package core

import (
	"fmt"
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/pager"
)

// ContinuousPNN is a session for a moving PNN query point — the
// continuous location-based service setting of the paper's introduction
// ([5]–[7]; the V*-diagram [6] solves it for certain data). The session
// maintains a SAFE CIRCLE around the last evaluation point inside which
// the answer SET is provably unchanged, so a moving client re-evaluates
// only when it exits the circle.
//
// Safe-radius argument. Within the leaf region of the adaptive grid the
// leaf list L is a superset of every possible answer, and the global
// bound m(x) = min_j distmax(Oj, x) is always attained inside L (its
// minimizer is itself an answer). Every predicate "Oi is an answer at
// x" compares distmin(Oi, x) against m₋ᵢ(x) = min_{j≠i} distmax(Oj,x),
// and both sides are 1-Lipschitz in x, so a move of δ cannot flip a
// predicate whose slack exceeds 2δ. The safe radius is therefore
//
//	r = min( distance to the leaf-region boundary,
//	         min_{i ∈ L} |distmin(Oi,q) − m₋ᵢ(q)| / 2 ).
type ContinuousPNN struct {
	ix   *UVIndex
	q    geom.Point
	ids  []int32
	safe geom.Circle
	gen  uint64 // index mutation generation the safe circle was computed at
	st   ContinuousStats

	// A recomputation's buffers, reused by the next one.
	tuples []pager.LeafTuple
	mins   []float64
}

// ContinuousStats counts the work saved by the safe region. The
// counters are EXACT: Moves counts successful Move calls, Recomputes
// counts completed re-evaluations (the opening evaluation included),
// and a failed operation — an out-of-domain point, a leaf read error —
// charges nothing, so callers can mirror the counts deterministically.
type ContinuousStats struct {
	Moves      int   // successful Move calls
	Recomputes int   // completed leaf descents + gap evaluations
	IndexIOs   int64 // leaf pages read across recomputations
}

// NewContinuousPNN opens a session at the starting point q.
func (ix *UVIndex) NewContinuousPNN(q geom.Point) (*ContinuousPNN, error) {
	c := &ContinuousPNN{ix: ix}
	if err := c.recompute(q); err != nil {
		return nil, err
	}
	return c, nil
}

// Move advances the query point. It returns the current answer IDs
// (sorted, shared slice) and whether a re-evaluation was needed.
//
// The safe circle is only valid against the index state it was computed
// at: an insert can shrink, and a delete can grow, an answer set inside
// the circle. Move therefore re-evaluates whenever the index's mutation
// generation has advanced since the last recompute.
func (c *ContinuousPNN) Move(q geom.Point) ([]int32, bool, error) {
	if c.safe.R > 0 && c.safe.C.Dist(q) < c.safe.R && c.gen == c.ix.gen.Load() {
		c.q = q
		c.st.Moves++
		return c.ids, false, nil
	}
	if err := c.recompute(q); err != nil {
		return nil, true, err
	}
	c.st.Moves++
	return c.ids, true, nil
}

// Revalidate re-evaluates the session at its CURRENT position if — and
// only if — the index has mutated since the safe circle was computed;
// an untouched index returns immediately on one atomic generation
// comparison. It reports whether a re-evaluation ran and, unlike Move,
// does not count a move: it is the churn-notification path, not a
// client movement.
func (c *ContinuousPNN) Revalidate() ([]int32, bool, error) {
	if c.gen == c.ix.gen.Load() {
		return c.ids, false, nil
	}
	if err := c.recompute(c.q); err != nil {
		return nil, true, err
	}
	return c.ids, true, nil
}

// AnswerIDs returns the answer set at the current position (sorted,
// shared slice).
func (c *ContinuousPNN) AnswerIDs() []int32 { return c.ids }

// SafeRegion returns the current safe circle: the answer set is
// guaranteed constant strictly inside it. A zero radius means every
// move re-evaluates (the query sits exactly on an answer boundary).
func (c *ContinuousPNN) SafeRegion() geom.Circle { return c.safe }

// Stats returns the session counters.
func (c *ContinuousPNN) Stats() ContinuousStats { return c.st }

// Position returns the current query point.
func (c *ContinuousPNN) Position() geom.Point { return c.q }

func (c *ContinuousPNN) recompute(q geom.Point) error {
	// Snapshot the generation before reading pages: a mutation landing
	// mid-read bumps gen past the snapshot, forcing the next Move to
	// re-evaluate rather than trust a torn answer set.
	gen := c.ix.gen.Load()

	tuples, region, _, ios, err := c.ix.leafAt(q, c.tuples)
	if err != nil {
		return err
	}
	c.tuples = tuples
	if len(tuples) == 0 {
		return fmt.Errorf("core: empty leaf at %v", q)
	}
	c.st.Recomputes++
	c.st.IndexIOs += ios

	// Two smallest distmax values give m₋ᵢ for every i in one pass.
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1
	if cap(c.mins) < len(tuples) {
		c.mins = make([]float64, len(tuples))
	}
	mins := c.mins[:len(tuples)]
	for i, t := range tuples {
		d := q.Dist(geom.Pt(t.CX, t.CY))
		mins[i] = math.Max(0, d-t.R)
		if dm := d + t.R; dm < m1 {
			m1, m2, arg1 = dm, m1, i
		} else if dm < m2 {
			m2 = dm
		}
	}

	c.ids = c.ids[:0]
	gap := math.Inf(1)
	for i := range tuples {
		other := m1
		if i == arg1 {
			other = m2
		}
		if mins[i] < other {
			c.ids = append(c.ids, tuples[i].ID)
		}
		if g := math.Abs(mins[i] - other); g < gap {
			gap = g
		}
	}
	sortIDs(c.ids)

	// Distance from q to the leaf-region boundary (q is inside).
	boundary := math.Min(
		math.Min(q.X-region.Min.X, region.Max.X-q.X),
		math.Min(q.Y-region.Min.Y, region.Max.Y-q.Y),
	)
	r := math.Min(boundary, gap/2)
	if r < 0 || math.IsInf(r, 1) {
		r = math.Max(0, boundary)
	}
	c.q = q
	c.safe = geom.Circle{C: q, R: r}
	c.gen = gen
	return nil
}

func sortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
