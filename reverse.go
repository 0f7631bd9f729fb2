package uvdiagram

import (
	"fmt"

	"uvdiagram/internal/rnn"
)

// RNNAnswer is one probabilistic reverse nearest-neighbor result: the
// object ID and the probability that the query point is that object's
// nearest neighbor.
type RNNAnswer = rnn.Answer

// RNNStats reports the work done by one RNN query: the candidate
// cutoff radius D₂, and the candidate/pool/answer counts.
type RNNStats = rnn.Stats

// RNN answers the probabilistic reverse nearest-neighbor query at q —
// the query type the paper's conclusion lists as future work. It
// returns every object with non-zero probability that q is its nearest
// neighbor, with those probabilities, sorted by ID.
//
// Candidates are collected with the second-minimum cutoff lemma (see
// package rnn) through the helper R-tree, then verified exactly against
// the query point's possible region.
func (db *DB) RNN(q Point) ([]RNNAnswer, RNNStats) {
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	// One store view serves both the dense array and the liveness
	// filter, captured before the tree so a concurrent delete can never
	// present a tree candidate the view calls dead-but-listed.
	view := db.store.View()
	return rnn.Query(view.Dense(), db.state().tree, q, view.Alive)
}

// PossibleRNN returns only the IDs of the probabilistic reverse
// nearest-neighbor answers at q, skipping probability integration.
func (db *DB) PossibleRNN(q Point) ([]int32, RNNStats) {
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	view := db.store.View()
	return rnn.PossibleRNN(view.Dense(), db.state().tree, q, view.Alive)
}

// PossibleRNNUncertain answers the reverse nearest-neighbor query with
// an UNCERTAIN query region (the reverse counterpart of the
// uncertain-query NN setting of [29]): the IDs of every object with
// non-zero probability that the query's true position is its nearest
// neighbor. A zero radius reproduces PossibleRNN. The region must pass
// the rule Build applies to an object's region (a finite center and a
// finite radius ≥ 0); any other returns an error wrapping
// ErrInvalidObject.
func (db *DB) PossibleRNNUncertain(region Circle) ([]int32, RNNStats, error) {
	if !validCircle(region) {
		return nil, RNNStats{}, fmt.Errorf("%w: query region center %v, radius %v", ErrInvalidObject, region.C, region.R)
	}
	t := db.egc.Pin()
	defer db.egc.Unpin(t)
	view := db.store.View()
	ids, st := rnn.PossibleRNNUncertain(view.Dense(), db.state().tree, region, view.Alive)
	return ids, st, nil
}
