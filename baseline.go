package uvdiagram

import (
	"time"

	"uvdiagram/internal/core"
	"uvdiagram/internal/prob"
)

// PNNViaRTree answers the same PNN query through the R-tree
// branch-and-prune strategy of [14] — the baseline the paper compares
// the UV-index against in Figure 6. Only the retrieval cost differs:
// the answers are bitwise identical to PNN's, because both paths hand
// their candidate ids to the same fetch-and-integrate step
// (core.AnswerFrom), which integrates them in one canonical order,
// ascending id, whatever order the index walk produced them in.
func (db *DB) PNNViaRTree(q Point) ([]Answer, QueryStats, error) {
	var st QueryStats
	t := db.egc.Pin()
	defer db.egc.Unpin(t)

	t0 := time.Now()
	// View before tree: the R-tree drops a victim before the store
	// tombstones it, so candidates from whichever tree snapshot we load
	// are always fetchable through a view captured first.
	view := db.store.View()
	tree := db.state().tree
	before := tree.Pager().Reads()
	items, _ := tree.PNNCandidates(q)
	st.IndexIOs = tree.Pager().Reads() - before
	ids := make([]int32, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	st.TraverseDur = time.Since(t0)

	sc := db.queryScratch()
	answers, err := core.AnswerFrom(view, q, ids, sc, &st)
	db.scratch.Put(sc)
	return answers, st, err
}

// Probabilities computes qualification probabilities for an explicit
// object set by the numerical-integration method of [14]; useful for
// verification and for workloads that bypass the index.
func Probabilities(objects []Object, q Point) []float64 {
	return prob.Probs(objects, q)
}

// MonteCarloProbabilities estimates qualification probabilities by
// sampling (the approach of [25]); an independent cross-check.
func MonteCarloProbabilities(objects []Object, q Point, trials int, seed int64) []float64 {
	return prob.MonteCarloProbs(objects, q, trials, seed)
}

// AnswerSet returns the indices of objects with non-zero qualification
// probability at q, by the exact distmin/distmax predicate.
func AnswerSet(objects []Object, q Point) []int {
	return prob.AnswerSet(objects, q)
}
