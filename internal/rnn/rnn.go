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
// collected with one R-tree range query of radius D₂.
//
// The same bound caps the constraint pool: a constraint whose outside
// region does not meet the disk Cir(q, D₂) cannot exclude any witness,
// and its center must satisfy dist(q,cj) + rj < 2·D₂ to meet that disk,
// so the pool is one more range query of radius 2·D₂.
package rnn

import (
	"math"
	"sort"

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

// Options tune the PRNN evaluation; zero values select defaults.
type Options struct {
	// SweepSamples is the number of directions in the cutoff sweep
	// (default 720). More samples tighten D₂.
	SweepSamples int
	// VerifySamples is the minimum number of directions used to test one
	// candidate for intersection with P₋ᵢ (default 96).
	VerifySamples int
	// Refine is the number of golden-section iterations polishing each
	// local maximum of the sweep and of the per-candidate margin
	// (default 40).
	Refine int
	// RadialSteps is the number of radial quadrature nodes per pdf bin
	// for probability integration (default 3).
	RadialSteps int
	// AngularSteps is the number of angular quadrature nodes for
	// probability integration (default 48).
	AngularSteps int
	// SkipProbabilities answers the boolean query only, leaving every
	// Answer.Prob zero.
	SkipProbabilities bool
	// Alive filters the population: objects for which it returns false
	// are treated as nonexistent (tombstoned store slots). nil means
	// every object is live. objs stays positionally indexed by ID, so
	// dense slices with dead slots work unchanged.
	Alive func(int32) bool
}

// alive reports whether id is live under the options' filter.
func (o Options) alive(id int32) bool { return o.Alive == nil || o.Alive(id) }

func (o Options) normalized() Options {
	if o.SweepSamples <= 0 {
		o.SweepSamples = 720
	}
	if o.VerifySamples <= 0 {
		o.VerifySamples = 96
	}
	if o.Refine <= 0 {
		o.Refine = 40
	}
	if o.RadialSteps <= 0 {
		o.RadialSteps = 3
	}
	if o.AngularSteps <= 0 {
		o.AngularSteps = 48
	}
	return o
}

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

func newQCon(q geom.Point, o uncertain.Object) qcon {
	return newQConR(q, 0, o)
}

// newQConR builds the constraint for an UNCERTAIN query region
// Cir(q, qr): object Oi can have the query as a nearest neighbor at
// position x only if distmin(Q, x) = dist(x, q) − qr stays below
// dist(x, cj) + rj for every competitor, so the outside-region
// condition is dist(x,q) − dist(x,cj) > rj + qr — the same UV-edge
// with S = rj + qr. The point query is the qr = 0 special case.
func newQConR(q geom.Point, qr float64, o uncertain.Object) qcon {
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
// for candidate and pool collection. Answers are sorted by ID. tree may
// be nil, in which case candidates are collected by scanning objs.
func Query(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, opt Options) ([]Answer, Stats) {
	opt = opt.normalized()
	ids, st := queryIDs(objs, tree, q, 0, opt)
	out := make([]Answer, len(ids))
	for i, id := range ids {
		out[i] = Answer{ID: id}
		if !opt.SkipProbabilities {
			out[i].Prob = ProbAlive(objs, id, q, opt.RadialSteps, opt.AngularSteps, opt.Alive)
		}
	}
	return out, st
}

// PossibleRNN returns only the IDs of the PRNN answer objects.
func PossibleRNN(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, opt Options) ([]int32, Stats) {
	return queryIDs(objs, tree, q, 0, opt.normalized())
}

// PossibleRNNUncertain answers the PRNN with an UNCERTAIN query object
// (uncertainty region Cir(uq.C, uq.R)) — reverse counterpart of the
// uncertain-query nearest-neighbor setting of [29]. Object Oi is an
// answer iff there is non-zero probability that the query's true
// position is Oi's nearest neighbor; geometrically, the constraint
// UV-edges gain S = rj + rq and everything else carries over (the
// point query is the rq = 0 special case).
func PossibleRNNUncertain(objs []uncertain.Object, tree *rtree.Tree, uq geom.Circle, opt Options) ([]int32, Stats) {
	return queryIDs(objs, tree, uq.C, uq.R, opt.normalized())
}

// queryIDs is the shared pipeline: cutoff sweep → candidate range
// query → exact per-candidate verification. qr is the query's own
// uncertainty radius (0 for a point query).
func queryIDs(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, qr float64, opt Options) ([]int32, Stats) {
	var st Stats

	cons := make([]qcon, 0, len(objs))
	for i := range objs {
		if !opt.alive(objs[i].ID) {
			continue
		}
		if c := newQConR(q, qr, objs[i]); c.exists() {
			cons = append(cons, c)
		}
	}
	// Ascending by the direction-independent lower bound m = (|w|+s)/2
	// (the bound t_j(φ) can never fall below the distance from q to the
	// nearest edge point): minimum searches then stop at the first
	// constraint whose floor already exceeds the running result, so
	// each direction touches only the few nearest objects.
	sort.Slice(cons, func(a, b int) bool { return cons[a].m < cons[b].m })

	d2 := cutoff(cons, opt.SweepSamples, opt.Refine)
	st.Cutoff = d2

	cands := collect(objs, tree, q, d2, func(o uncertain.Object) bool {
		return opt.alive(o.ID) && o.DistMin(q) <= d2
	})
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
		if intersects(objs[id], q, qr, pool, d2, opt) {
			out = append(out, id)
		}
	}
	st.Answers = len(out)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, st
}

// collect gathers the IDs of objects passing keep, using the R-tree
// when available and the radius is finite.
func collect(objs []uncertain.Object, tree *rtree.Tree, q geom.Point, radius float64, keep func(uncertain.Object) bool) []int32 {
	var ids []int32
	if tree != nil && !math.IsInf(radius, 1) {
		r := geom.Circle{C: q, R: radius}.BoundingRect()
		for _, it := range tree.SearchCollect(r) {
			// The tree can be newer than objs (the DB captures its store
			// view first): an id a concurrent insert added past the view
			// is not part of this query's snapshot.
			if int(it.ID) < len(objs) && keep(objs[it.ID]) {
				ids = append(ids, it.ID)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for i := range objs {
		if keep(objs[i]) {
			ids = append(ids, objs[i].ID)
		}
	}
	return ids
}

// cutoff computes D₂ = max_φ d₂(φ) by a dense sweep followed by
// golden-section polishing of each local maximum. The result is
// inflated by a small relative factor: the cutoff is only a candidate
// filter, so overestimating costs a few extra verifications while
// underestimating could drop an answer.
func cutoff(cons []qcon, samples, refine int) float64 {
	if len(cons) < 2 {
		return math.Inf(1)
	}
	eval := func(phi float64) float64 { return secondMin(cons, geom.PolarUnit(phi)) }

	vals := make([]float64, samples)
	for i := 0; i < samples; i++ {
		vals[i] = eval(2 * math.Pi * float64(i) / float64(samples))
	}
	best := 0.0
	for i, v := range vals {
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		if v > best {
			best = v
		}
		// Polish local maxima: vals[i] ≥ both neighbors (cyclically).
		prev := vals[(i+samples-1)%samples]
		next := vals[(i+1)%samples]
		if v >= prev && v >= next {
			lo := 2 * math.Pi * float64(i-1) / float64(samples)
			hi := 2 * math.Pi * float64(i+1) / float64(samples)
			if r := goldenMax(eval, lo, hi, refine); r > best {
				if math.IsInf(r, 1) {
					return r
				}
				best = r
			}
		}
	}
	return best * (1 + 1e-6)
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

// goldenMax maximizes f on [lo, hi] by golden-section search and
// returns the best value seen (f need not be unimodal on the bracket;
// the result is still a valid lower bound on the maximum, which is the
// safe direction here).
func goldenMax(f func(float64) float64, lo, hi float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	best := math.Max(f1, f2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
		if v := math.Max(f1, f2); v > best {
			best = v
		}
	}
	return best
}

// intersects reports whether Oi's uncertainty region intersects the
// interior of P₋ᵢ. The disk is scanned over the angular span it
// subtends from q; along each ray the nearest disk point is at
// t_near(φ), and the ray meets the region iff t_near(φ) < R₋ᵢ(φ).
// qr is the query's own uncertainty radius; the pool constraints
// already carry it in their S terms.
func intersects(oi uncertain.Object, q geom.Point, qr float64, pool []qcon, cap float64, opt Options) bool {
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

	n := opt.VerifySamples
	if n < 9 {
		n = 9
	}
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
	return goldenMax(margin, lo, hi, opt.Refine) > 0
}
