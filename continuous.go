package uvdiagram

import (
	"uvdiagram/internal/core"
)

// ContinuousPNN is a moving-query session: it tracks a query point and
// re-evaluates the PNN answer set only when the point leaves a provably
// safe circle (see internal/core ContinuousPNN for the safe-radius
// argument) — the continuous location-based-service setting of the
// paper's introduction ([5]–[7]).
//
// Sessions survive dynamic maintenance: an Insert or Delete that
// touches the session's shard invalidates the safe circle through the
// shard index's mutation generation (mutations confined to other shards
// provably cannot change answers here and leave the circle valid), a
// Compact's new database state transparently re-opens the session
// against the fresh index, and a move across a shard boundary re-opens
// it on the owning shard — so a stale answer set is never served. The
// safe circle never extends past the leaf region, and therefore never
// past the shard, so staying inside it can never cross a boundary.
type ContinuousPNN struct {
	db *DB
	si int // shard owning the current position
	// gen is the generation of the database state the session's index
	// belongs to. Only the generation is kept, not the state, so an idle
	// session does not hold a replaced state's indexes alive.
	gen   uint64
	sess  *core.ContinuousPNN
	prior ContinuousStats // counters from sessions before state/shard swaps
}

// ContinuousStats counts moves versus actual re-evaluations.
type ContinuousStats = core.ContinuousStats

// NewContinuousPNN opens a moving-query session at q over the owning
// shard's UV-index. An out-of-domain q fails with a *DomainError
// (matching ErrOutOfDomain).
func (db *DB) NewContinuousPNN(q Point) (*ContinuousPNN, error) {
	if !db.domain.Contains(q) {
		return nil, &DomainError{Point: q, Domain: db.domain}
	}
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	st := db.state()
	si := db.layout.shardIdx(q)
	sess, err := st.indexes[si].NewContinuousPNN(q)
	if err != nil {
		return nil, err
	}
	return &ContinuousPNN{db: db, si: si, gen: st.gen, sess: sess}, nil
}

// Move advances the query point. It returns the current answer IDs
// (sorted, shared slice) and whether a re-evaluation was needed. A move
// out of the domain fails with a *DomainError (matching ErrOutOfDomain)
// and leaves the session at its last valid position.
func (c *ContinuousPNN) Move(q Point) ([]int32, bool, error) {
	if !c.db.domain.Contains(q) {
		return nil, false, &DomainError{Point: q, Domain: c.db.domain}
	}
	t := c.db.egc.Pin()
	defer c.db.egc.Unpin(t)
	return c.advance(c.db.state(), q, true)
}

// Revalidate re-evaluates the session at its CURRENT position if — and
// only if — the index state its safe circle was computed against has
// changed: a mutation on the owning shard or a Compact. An
// untouched engine returns immediately on atomic generation
// comparisons, so calling it after every database write is cheap for
// the (typical) sessions the write did not affect. It returns the
// current answer IDs (sorted, shared slice) and whether a re-evaluation
// ran; unlike Move it does not count a move.
func (c *ContinuousPNN) Revalidate() ([]int32, bool, error) {
	t := c.db.egc.Pin()
	defer c.db.egc.Unpin(t)
	return c.advance(c.db.state(), c.sess.Position(), false)
}

// advance is the ONE re-open + move path shared by Move, Revalidate and
// DB.AdvanceAll, against the database state st. When the point crossed
// into another shard or st is not the state the session was opened in
// (a Compact replaced it: states differ in generation), the old
// session's safe circle argues about the wrong index: the session
// re-opens on the owning shard's index in st, carrying the work
// counters forward. Otherwise the core session's safe-circle check
// runs, which compares the index's mutation generation. Counters fold
// into prior only AFTER a successful re-open: on failure (the fresh
// evaluation can fail, e.g. on an out-of-domain point) the live session
// and its tallies stay current, so the next successful call neither
// double-counts the folded work nor leaves the session bound to a dead
// state forever.
func (c *ContinuousPNN) advance(st *dbState, q Point, move bool) ([]int32, bool, error) {
	si := c.db.layout.shardIdx(q)
	if si != c.si || st.gen != c.gen {
		sess, err := st.indexes[si].NewContinuousPNN(q)
		if err != nil {
			return nil, true, err
		}
		old := c.sess.Stats()
		c.prior.Moves += old.Moves
		c.prior.Recomputes += old.Recomputes
		c.prior.IndexIOs += old.IndexIOs
		c.si, c.gen, c.sess = si, st.gen, sess
		if move {
			c.prior.Moves++ // this Move, charged to the fresh session's caller
		}
		return sess.AnswerIDs(), true, nil
	}
	if move {
		return c.sess.Move(q)
	}
	return c.sess.Revalidate()
}

// AnswerIDs returns the answer set at the current position (sorted,
// shared slice).
func (c *ContinuousPNN) AnswerIDs() []int32 { return c.sess.AnswerIDs() }

// SafeRegion returns the current safe circle: the answer set is
// guaranteed constant strictly inside it (for the index state it was
// computed at). A zero radius means every move re-evaluates.
func (c *ContinuousPNN) SafeRegion() Circle { return c.sess.SafeRegion() }

// Stats returns the session counters, accumulated across any state or
// shard swaps the session survived.
func (c *ContinuousPNN) Stats() ContinuousStats {
	st := c.sess.Stats()
	st.Moves += c.prior.Moves
	st.Recomputes += c.prior.Recomputes
	st.IndexIOs += c.prior.IndexIOs
	return st
}

// Position returns the current query point.
func (c *ContinuousPNN) Position() Point { return c.sess.Position() }
