package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"uvdiagram"
	"uvdiagram/internal/prob"
	"uvdiagram/internal/server"
)

// The oracle answers from the harness's own ledger of the live
// population by brute force — no index, no cr-sets, no page store — so
// it shares nothing with the serving path but the probability kernel.

const (
	probTol = 1e-9 // |Δp| per answer
	sumTol  = 1e-4 // |Σp − 1|; the 200-step midpoint rule itself is off by up to ~3e-6
)

// brutePNN is the PNN answer at q over the whole live population.
func (g *rig) brutePNN(q uvdiagram.Point) []uvdiagram.Answer {
	idx := uvdiagram.AnswerSet(g.live, q)
	cands := make([]uvdiagram.Object, len(idx))
	for i, j := range idx {
		cands[i] = g.live[j]
	}
	// The engine integrates over candidates in id order; the product's
	// rounding depends on it.
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	var out []uvdiagram.Answer
	for i, p := range uvdiagram.Probabilities(cands, q) {
		if p > 0 {
			out = append(out, uvdiagram.Answer{ID: cands[i].ID, Prob: p})
		}
	}
	return out
}

// bruteIDs is the sorted id set with non-zero probability at q.
func (g *rig) bruteIDs(q uvdiagram.Point) []int32 {
	return idsOf(g.live, uvdiagram.AnswerSet(g.live, q))
}

func idsOf(objs []uvdiagram.Object, idx []int) []int32 {
	ids := make([]int32, len(idx))
	for i, j := range idx {
		ids[i] = objs[j].ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPNN compares one served PNN answer with the oracle's.
func checkPNN(got, want []uvdiagram.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle %d", len(got), len(want))
	}
	sum := 0.0
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("answer %d is object %d, oracle %d", i, got[i].ID, want[i].ID)
		}
		if d := math.Abs(got[i].Prob - want[i].Prob); d > probTol {
			return fmt.Errorf("object %d: p=%v, oracle %v", got[i].ID, got[i].Prob, want[i].Prob)
		}
		sum += got[i].Prob
	}
	if math.Abs(sum-1) > sumTol {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	return nil
}

// verifyPNN checks g.sz.oracle seeded single PNN queries, and the same
// points as one BatchPNN frame, against the oracle.
func (g *rig) verifyPNN(c *server.Client, rng *rand.Rand) error {
	qs := make([]uvdiagram.Point, g.sz.oracle)
	for i := range qs {
		qs[i] = uvdiagram.Pt(rng.Float64()*domainSide, rng.Float64()*domainSide)
	}
	batch, err := c.BatchPNN(qs)
	if err != nil {
		return fmt.Errorf("oracle BatchPNN: %w", err)
	}
	for i, q := range qs {
		want := g.brutePNN(q)
		g.res.Attempted += 2
		got, err := c.PNN(q)
		if err == nil {
			err = checkPNN(got, want)
		}
		if err != nil {
			g.res.fail("PNN at %v: %v", q, err)
		}
		if err := checkPNN(batch[i], want); err != nil {
			g.res.fail("BatchPNN at %v: %v", q, err)
		}
	}
	return nil
}

// verify is the oracle check once the rounds are over and the writer has
// stopped: the live count, and seeded PNN, BatchPNN and possible-k-NN
// queries, all against the ledger.
func (g *rig) verify() error {
	g.res.Attempted++
	if got, want := g.db.Len(), len(g.live); got != want {
		g.res.fail("db.Len() = %d, ledger %d", got, want)
	}
	c := g.clients[0]
	rng := rand.New(rand.NewSource(g.seed + 40))
	if err := g.verifyPNN(c, rng); err != nil {
		return err
	}
	for i := 0; i < g.sz.oracle; i++ {
		q := uvdiagram.Pt(rng.Float64()*domainSide, rng.Float64()*domainSide)
		g.res.Attempted++
		got, err := c.PossibleKNN(q, knnK)
		if err != nil {
			g.res.fail("PossibleKNN at %v: %v", q, err)
			continue
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if want := idsOf(g.live, prob.KNNAnswerSet(g.live, q, knnK)); !equalIDs(got, want) {
			g.res.fail("PossibleKNN at %v: %v, oracle %v", q, got, want)
		}
	}
	return nil
}
