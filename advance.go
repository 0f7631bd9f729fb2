package uvdiagram

// Bulk session advancement: the fleet-scale half of the continuous
// moving-query engine. A server holding thousands of open ContinuousPNN
// sessions advances (or, after a write, re-validates) all of them in
// one pass through the batch engine's worker pool, under one epoch pin
// and one database state, instead of paying a full routing round per
// session.

// AdvanceAll advances many moving-query sessions in one batch. qs[i] is
// session i's new position; a nil qs re-validates every session at its
// current position instead (the churn-notification path: only sessions
// whose owning shard actually mutated re-evaluate, the rest return on
// one atomic generation comparison and touch no pages).
//
// The database state is loaded ONCE for the whole batch, and session
// re-opens across Compacts are handled centrally here (the same
// advance path Move uses) rather than per-call.
//
// recomputed[i] reports whether session i re-evaluated its answer set;
// errs[i] carries that session's error. A failing session does not fail
// the batch — the other sessions still advance — so a serving layer can
// drop exactly the cursors that went bad (e.g. moved out of the
// domain).
//
// Each session must be owned by at most one goroutine; AdvanceAll takes
// that ownership for every passed session for the duration of the call.
// Like all queries, it runs lock-free against concurrent Insert/Delete
// (copy-on-write snapshots; see the DB locking notes).
func (db *DB) AdvanceAll(sessions []*ContinuousPNN, qs []Point, opts *BatchOptions) (recomputed []bool, errs []error) {
	if qs != nil && len(qs) != len(sessions) {
		panic("uvdiagram: AdvanceAll position count does not match session count")
	}
	n := len(sessions)
	recomputed = make([]bool, n)
	errs = make([]error, n)
	if n == 0 {
		return recomputed, errs
	}
	t := db.egc.Pin() // one pin covers every worker's page reads
	defer db.egc.Unpin(t)
	st := db.state()
	pos := func(i int) Point {
		if qs == nil {
			return sessions[i].Position()
		}
		return qs[i]
	}

	// Out-of-domain positions are rejected with a typed
	// per-session *DomainError (matching ErrOutOfDomain) and never reach
	// a shard — the session stays at its last valid position. (They
	// previously clamped to an edge shard whose index reported a
	// shard-level string error, which serving layers could only
	// string-match.)
	runPool(n, opts.workers(), "session", func(i int) error {
		p := pos(i)
		if !db.domain.Contains(p) {
			errs[i] = &DomainError{Point: p, Domain: db.domain}
			return nil
		}
		_, recomputed[i], errs[i] = sessions[i].advance(st, p, qs != nil)
		return nil // per-session errors land in errs; the batch never aborts
	})
	return recomputed, errs
}
