// Package derive holds the dimension-free half of cr-set derivation,
// shared by the 2-D, order-k and 3-D engines. Algorithm 2 represents a
// possible region radially — R(u) = min over its constraints of the
// UV-edge bound along u, clipped to the domain — and I-pruning
// (Lemma 2) shrinks it to a fixpoint. That is a lower envelope of
// radial functions, the order-k cell is its k-th level, and nothing in
// it depends on the dimension except how one bound is evaluated along
// one direction. So the engines keep the geometry (constraint
// construction, the per-direction arithmetic, seeds, range queries) and
// this package owns the rest:
//
//   - Each: the per-population driver (worker pool, private per-worker
//     state, pprof labels);
//   - Table: the per-object cache of bound rows over a fixed direction
//     set and the k-th-smallest fold across the active rows;
//   - Fixpoint: the seed → range(2d−r) → re-bound loop of Lemma 2;
//   - RingMax: the sweep-and-polish maximum of a radial function, the
//     region's max-radius bound (and the reverse-NN cutoff).
//
// The package imports only the standard library.
package derive

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Each calls visit(w, u) exactly once for every unit u in [0, units)
// and returns the worker states for the caller to merge. A unit is
// whatever the caller derives in one piece — one object id, or a group
// of objects that share their searches — and the caller maps it to ids
// (skipping tombstones). With workers > 1 that many goroutines pull
// units off one shared counter; otherwise the visits run inline on the
// caller's goroutine. Every goroutine gets its own W from newWorker —
// its scratch arena and stats — so visit needs no synchronization
// beyond writing to per-id slots, and results cannot depend on the
// worker count. All visits run under the given pprof labels.
func Each[W any](units, workers int, labels pprof.LabelSet, newWorker func() *W, visit func(w *W, unit int)) []*W {
	if workers < 1 {
		workers = 1
	}
	states := make([]*W, workers)
	var next atomic.Int64
	run := func(slot int) {
		pprof.Do(context.Background(), labels, func(context.Context) {
			w := newWorker()
			states[slot] = w
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				visit(w, u)
			}
		})
	}
	if workers == 1 {
		run(0)
		return states
	}
	var wg sync.WaitGroup
	for slot := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(slot)
		}()
	}
	wg.Wait()
	return states
}

// Pruner is what Fixpoint needs from an engine about the object being
// derived.
type Pruner interface {
	// Range returns, in buf's storage and in ascending id order, every
	// other object whose center lies within radius of the object's.
	Range(radius float64, buf []int32) []int32
	// Bound returns the engine's upper bound on the maximum radius of
	// the region bounded by the domain and the candidates' constraints.
	Bound(cands []int32) float64
}

// Fixpoint iterates the I-pruning filter of Lemma 2 — whose proof is
// dimension- and order-free: a constraint whose center lies outside
// Ball(ci, 2d−ri), d the region's maximum radius, cannot intersect the
// region — and returns the surviving candidates in cands' storage. d is
// the seed region's bound, valid for the first round because a region
// built from fewer constraints is a superset; r is the object's own
// radius. The candidate set and the bound then shrink monotonically,
// and the loop stops when a round no longer improves the bound (or
// after the given number of rounds). The last Bound call was made on
// the returned candidates.
func Fixpoint(p Pruner, d, r float64, rounds int, cands []int32) []int32 {
	for iter := 0; iter < rounds; iter++ {
		radius := 2*d - r
		if radius <= 0 {
			radius = d
		}
		cands = p.Range(radius, cands[:0])
		d2 := p.Bound(cands)
		if d2 >= d*(1-1e-9) {
			break
		}
		d = d2
	}
	return cands
}
