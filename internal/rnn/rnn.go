// Package rnn answers probabilistic reverse nearest-neighbor (PRNN)
// queries over uncertain objects — the query type the paper's
// conclusion lists as future work ("reverse nearest-neighbor queries",
// in the spirit of [27], [28]).
//
// Given a query point q, an object Oi is a PRNN answer iff q has a
// non-zero probability of being the nearest neighbor of Oi's true
// position Xi among {q} ∪ {Xj : j ≠ i}:
//
//	P[ dist(Xi, q) < min_{j≠i} dist(Xi, Xj) ] > 0.
//
// Geometry. Treat q as a zero-radius uncertain object. Its possible
// region against O ∖ {Oi},
//
//	P₋ᵢ = { x : dist(x,q) < dist(x,cj) + rj  for every j ≠ i },
//
// is exactly the set of positions for which q can be the nearest
// object. P₋ᵢ is star-shaped around q (the same triangle-inequality
// argument as DESIGN.md §3), so along the ray q + t·u(φ) it is the
// interval [0, R₋ᵢ(φ)) with R₋ᵢ(φ) = min_{j≠i} t_j(φ), where t_j is the
// radial bound of the UV-edge of the point object q w.r.t. Oj. Oi is a
// PRNN answer iff its uncertainty region intersects P₋ᵢ with positive
// measure (the pdf model has full support on the region, so interior
// intersection suffices).
//
// Candidate cutoff (the second-minimum lemma). For every direction φ
// let d₂(φ) be the second-smallest radial bound over all objects
// (+∞ if fewer than two bounds exist), and D₂ = max_φ d₂(φ). Dropping
// one constraint raises a minimum at most to the second minimum, so
// every witness x ∈ P₋ᵢ has dist(x,q) ≤ d₂(φ) ≤ D₂, and therefore
// every answer object satisfies distmin(Oi,q) ≤ D₂. Candidates are
// collected with one R-tree walk (Tree.NearFunc) of radius D₂. D₂ is
// the 2nd level of a lower envelope of radial functions, so it is found
// by the same sweep-and-polish (derive.RingMax) that bounds an order-k
// cell, the k-th level of such an envelope.
//
// The same bound caps the constraint pool: a constraint whose outside
// region does not meet the disk Cir(q, D₂) cannot exclude any witness,
// and its center must satisfy dist(q,cj) + rj < 2·D₂ to meet that disk,
// so the pool keeps only those constraints.
//
// Accuracy. Five package constants fix the discretizations; none is a
// setting:
//
//   - SweepSamples (720): directions of the cutoff sweep, which bracket
//     each local maximum of d₂ before the polish;
//   - VerifySamples (96): directions testing one candidate against
//     P₋ᵢ, spread over the angle its disk subtends from q;
//   - Refine (40): golden-section iterations polishing the best
//     verification direction (the sweep's polish has the same length);
//   - RadialSteps (3) and AngularSteps (48): the radial nodes per pdf
//     bin and the angular nodes of Query's probability integration.
package rnn

import (
	"math"
	"slices"
	"sort"

	"uvdiagram/internal/derive"
	"uvdiagram/internal/geom"
	"uvdiagram/internal/rtree"
	"uvdiagram/internal/uncertain"
)

// Answer is one PRNN result: the object ID and the probability that q
// is the object's nearest neighbor.
type Answer struct {
	ID   int32
	Prob float64
}

// The accuracy constants, listed with what each bounds in the package
// doc.
const (
	SweepSamples  = 720                // cutoff sweep directions
	VerifySamples = 96                 // directions verifying one candidate
	Refine        = derive.PolishIters // golden-section polish iterations
	RadialSteps   = 3                  // integration nodes per pdf bin, radially
	AngularSteps  = 48                 // integration nodes, angularly
)

// Stats reports the work done by one PRNN query.
type Stats struct {
	// Cutoff is D₂, the candidate radius (math.Inf(1) when some
	// direction is unbounded, in which case every object is a
	// candidate).
	Cutoff float64
	// Candidates is the number of objects passing the cutoff filter.
	Candidates int
	// PoolSize is the number of constraints kept for verification.
	PoolSize int
	// Answers is the number of verified answer objects.
	Answers int
}

// qcon is one precomputed constraint of the query point's possible
// region: the UV-edge of the zero-radius object q w.r.t. Oj.
type qcon struct {
	id     int32
	w      geom.Point // q − cj
	s      float64    // rj
	normSq float64    // |w|²
	m      float64    // (|w|+s)/2: the minimum of t over all directions
}

// newQCon builds the constraint for an UNCERTAIN query region
// Cir(q, qr): object Oi can have the query as a nearest neighbor at
// position x only if distmin(Q, x) = dist(x, q) − qr stays below
// dist(x, cj) + rj for every competitor, so the outside-region
// condition is dist(x,q) − dist(x,cj) > rj + qr — the same UV-edge
// with S = rj + qr. The point query is the qr = 0 special case.
func newQCon(q geom.Point, qr float64, o uncertain.Object) qcon {
	w := q.Sub(o.Region.C)
	n := w.Norm()
	s := o.Region.R + qr
	return qcon{id: o.ID, w: w, s: s, normSq: n * n, m: (n + s) / 2}
}

// bound returns the radial bound t of the constraint along the unit
// direction u, with ok=false when the ray from q never enters the
// outside region (same closed form as geom.UVEdge.RadialBound).
func (c qcon) bound(u geom.Point) (float64, bool) {
	den := c.w.Dot(u) + c.s
	if den >= 0 {
		return 0, false
	}
	return (c.s*c.s - c.normSq) / (2 * den), true
}

// exists reports whether the constraint is non-degenerate (the query
// point is outside Oj's uncertainty region).
func (c qcon) exists() bool { return c.normSq > c.s*c.s }

// Query answers the PRNN query at q over the objects, using the R-tree
// for candidate collection, with each answer's probability. Answers are
// sorted by ID. tree may be nil, in which case candidates are collected
// by scanning objs. alive filters the population: objects for which it
// returns false are treated as nonexistent (tombstoned store slots), and
// nil means every object is live. objs stays positionally indexed by ID,
// so dense slices with dead slots work unchanged.
func Query(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, alive func(int32) bool) ([]Answer, Stats) {
	ids, st := queryIDs(objs, tree, q, 0, alive)
	out := make([]Answer, len(ids))
	for i, id := range ids {
		out[i] = Answer{ID: id, Prob: Prob(objs, id, q, RadialSteps, AngularSteps, alive)}
	}
	return out, st
}

// PossibleRNN returns only the IDs of the PRNN answer objects, skipping
// probability integration.
func PossibleRNN(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, alive func(int32) bool) ([]int32, Stats) {
	return queryIDs(objs, tree, q, 0, alive)
}

// PossibleRNNUncertain answers the PRNN with an UNCERTAIN query object
// (uncertainty region Cir(uq.C, uq.R)) — reverse counterpart of the
// uncertain-query nearest-neighbor setting of [29]. Object Oi is an
// answer iff there is non-zero probability that the query's true
// position is Oi's nearest neighbor; geometrically, the constraint
// UV-edges gain S = rj + rq and everything else carries over (the
// point query is the rq = 0 special case).
func PossibleRNNUncertain(objs []uncertain.Object, tree *rtree.Tree, uq geom.Circle, alive func(int32) bool) ([]int32, Stats) {
	return queryIDs(objs, tree, uq.C, uq.R, alive)
}

// queryIDs is the shared pipeline: cutoff sweep → candidate range
// query → exact per-candidate verification. qr is the query's own
// uncertainty radius (0 for a point query).
func queryIDs(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, qr float64, alive func(int32) bool) ([]int32, Stats) {
	var st Stats
	live := func(id int32) bool { return alive == nil || alive(id) }

	cons := make([]qcon, 0, len(objs))
	for i := range objs {
		if !live(objs[i].ID) {
			continue
		}
		if c := newQCon(q, qr, objs[i]); c.exists() {
			cons = append(cons, c)
		}
	}
	// Ascending by the direction-independent lower bound m = (|w|+s)/2
	// (the bound t_j(φ) can never fall below the distance from q to the
	// nearest edge point): minimum searches then stop at the first
	// constraint whose floor already exceeds the running result, so
	// each direction touches only the few nearest objects.
	sort.Slice(cons, func(a, b int) bool { return cons[a].m < cons[b].m })

	d2 := cutoff(cons)
	st.Cutoff = d2

	var cands []int32
	if tree != nil && !math.IsInf(d2, 1) {
		tree.NearFunc(q, d2, func(it rtree.Item) {
			// The tree can be newer than objs (the DB captures its store
			// view first): an id a concurrent insert added past the view
			// is not part of this query's snapshot.
			if int(it.ID) < len(objs) && live(it.ID) {
				cands = append(cands, it.ID)
			}
		})
		slices.Sort(cands)
	} else {
		for i := range objs {
			if live(objs[i].ID) && objs[i].DistMin(q) <= d2 {
				cands = append(cands, objs[i].ID)
			}
		}
	}
	st.Candidates = len(cands)

	pool := cons
	if !math.IsInf(d2, 1) {
		pool = pool[:0:0]
		for _, c := range cons {
			// Constraint s already includes qr, so the 2·D₂ pool bound
			// is unchanged: |w| + s < 2·D₂.
			if math.Sqrt(c.normSq)+c.s <= 2*d2*(1+1e-9) {
				pool = append(pool, c)
			}
		}
	}
	st.PoolSize = len(pool)

	var out []int32
	for _, id := range cands {
		if intersects(objs[id], q, qr, pool, d2) {
			out = append(out, id)
		}
	}
	st.Answers = len(out)
	return out, st
}

// cutoff computes D₂ = max_φ d₂(φ) by derive.RingMax's sweep over
// SweepSamples directions. The result is inflated by a small relative
// factor: the cutoff is only a candidate filter, so overestimating
// costs a few extra verifications while underestimating could drop an
// answer.
func cutoff(cons []qcon) float64 {
	if len(cons) < 2 {
		return math.Inf(1)
	}
	eval := func(phi float64) float64 { return secondMin(cons, geom.PolarUnit(phi)) }
	vals := make([]float64, SweepSamples)
	for i := range vals {
		vals[i] = eval(2 * math.Pi * float64(i) / SweepSamples)
	}
	return derive.RingMax(vals, eval)
}

// secondMin returns the second-smallest radial bound over the
// constraints along u (+∞ when fewer than two constraints bound the
// ray). When cons is sorted ascending by the per-constraint floor m,
// the scan stops as soon as the floor exceeds the running second
// minimum — no later constraint can lower it.
func secondMin(cons []qcon, u geom.Point) float64 {
	m1, m2 := math.Inf(1), math.Inf(1)
	for i := range cons {
		c := &cons[i]
		if c.m >= m2 {
			break
		}
		t, ok := c.bound(u)
		if !ok {
			continue
		}
		if t < m1 {
			m1, m2 = t, m1
		} else if t < m2 {
			m2 = t
		}
	}
	return m2
}

// intersects reports whether Oi's uncertainty region intersects the
// interior of P₋ᵢ. The disk is scanned over the angular span it
// subtends from q; along each ray the nearest disk point is at
// t_near(φ), and the ray meets the region iff t_near(φ) < R₋ᵢ(φ).
// qr is the query's own uncertainty radius; the pool constraints
// already carry it in their S terms.
func intersects(oi uncertain.Object, q geom.Point, qr float64, pool []qcon, cap float64) bool {
	l := q.Dist(oi.Region.C)
	if l <= oi.Region.R+qr {
		// The query's region touches Oi's: a position of Oi coinciding
		// with a position of the query has distance 0, which beats
		// every other object's maximum distance (positive, since
		// regions that meet the query contribute no constraint).
		return true
	}

	radius := func(u geom.Point) float64 {
		r := math.Inf(1)
		for i := range pool {
			c := &pool[i]
			if c.m >= r {
				break // pool is sorted by floor m: no further improvement
			}
			if c.id == oi.ID {
				continue
			}
			if t, ok := c.bound(u); ok && t < r {
				r = t
			}
		}
		// Witnesses beyond the cutoff cannot exist (second-minimum
		// lemma); clamping also keeps the pool approximation sound.
		if !math.IsInf(cap, 1) && r > cap {
			r = cap
		}
		return r
	}

	phi0 := oi.Region.C.Sub(q).Angle()
	alpha := math.Asin(math.Min(1, oi.Region.R/l))

	// Margin of the ray at angular offset psi from phi0: positive iff
	// the nearest disk point on the ray lies strictly inside P₋ᵢ.
	margin := func(psi float64) float64 {
		s := l * math.Sin(psi)
		disc := oi.Region.R*oi.Region.R - s*s
		if disc < 0 {
			return math.Inf(-1)
		}
		tn := l*math.Cos(psi) - math.Sqrt(disc)
		if tn < 0 {
			tn = 0
		}
		return radius(geom.PolarUnit(phi0+psi)) - tn
	}

	const n = VerifySamples
	bestPsi, bestVal := 0.0, math.Inf(-1)
	for i := 0; i < n; i++ {
		psi := -alpha + 2*alpha*float64(i)/float64(n-1)
		if v := margin(psi); v > bestVal {
			bestPsi, bestVal = psi, v
		}
	}
	if bestVal > 0 {
		return true
	}
	// Polish around the best sample before rejecting.
	step := 2 * alpha / float64(n-1)
	lo := math.Max(-alpha, bestPsi-step)
	hi := math.Min(alpha, bestPsi+step)
	return derive.GoldenMax(margin, lo, hi, Refine) > 0
}
