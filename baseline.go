package uvdiagram

import (
	"sort"
	"time"

	"uvdiagram/internal/prob"
	"uvdiagram/internal/uncertain"
)

// PNNViaRTree answers the same PNN query through the R-tree
// branch-and-prune strategy of [14] — the baseline the paper compares
// the UV-index against in Figure 6. Answers are identical to PNN; only
// the retrieval cost differs.
func (db *DB) PNNViaRTree(q Point) ([]Answer, QueryStats, error) {
	var st QueryStats
	t := db.egc.Pin()
	defer db.egc.Unpin(t)

	t0 := time.Now()
	// View before tree: the R-tree drops a victim before the store
	// tombstones it, so candidates from whichever tree snapshot we load
	// are always fetchable through a view captured first.
	view := db.store.View()
	tree := db.rtree()
	before := tree.Pager().Reads()
	items, _ := tree.PNNCandidates(q)
	st.IndexIOs = tree.Pager().Reads() - before
	st.Candidates = len(items)
	st.TraverseDur = time.Since(t0)

	t1 := time.Now()
	cands := make([]uncertain.Object, 0, len(items))
	for _, it := range items {
		o, err := view.Fetch(it.ID)
		if err != nil {
			return nil, st, err
		}
		cands = append(cands, o)
		st.ObjectIOs++
	}
	st.RetrieveDur = time.Since(t1)

	t2 := time.Now()
	var sc prob.Scratch
	ps := prob.ProbsScratch(cands, q, &sc)
	st.CDFEvals, st.QuadCapped = sc.CDFEvals, sc.Capped
	var answers []Answer
	for i, p := range ps {
		if p > 0 {
			answers = append(answers, Answer{ID: cands[i].ID, Prob: p})
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].ID < answers[j].ID })
	st.ProbDur = time.Since(t2)
	return answers, st, nil
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
