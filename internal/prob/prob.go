// Package prob computes PNN qualification probabilities for uncertain
// objects: the exact answer-set predicate, distance distributions via
// ring/disk lens areas, the numerical-integration method of Cheng et
// al. (TKDE 2004, reference [14] of the paper), a Monte-Carlo estimator
// in the spirit of [25].
package prob

import (
	"math"
	"slices"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// sweep is the per-(object, query) state of the distance CDF: what is
// fixed while the quadrature sweeps its radii over one candidate.
// reach fills the distances (one per candidate, read by the
// answer-set predicate, the integration support and the CDF alike); arm
// adds what only answer-set objects need to evaluate F.
type sweep struct {
	d        float64 // dist(q, centre)
	min, max float64 // distmin, distmax (Equations 2 and 3)
	d2       float64 // d²
	area     float64 // πR²; 0 for a point object
	rings    []ring

	// An object armed through its pdf's table (armTable) evaluates F
	// there instead of through rings.
	tab   *cdfTable
	R     float64
	panel int       // the w-panel of R/d, fitted
	tw    []float64 // T_0…T_{tableW−1} at R/d's place in the panel
	cells []float64 // the cells' series contracted over w, tableT each
	ready []bool    // the cells contracted so far
}

// ring is one term of the telescoped ring sum. Ring k of an n-bin pdf
// has density u_k = Bin(k)·n²/(2k+1) per 1/(πR²) of area, and its outer
// disk (radius R·(k+1)/n) is ring k+1's inner disk, so the mass of any
// region A is (1/πR²)·Σ_j c_j·area(A ∩ disk(centre, R·j/n)) with
// c_j = u_{j−1} − u_j, u_n = 0: n lens areas where summing ring by ring
// takes 2n (one for a uniform pdf, up to rounding in its weights).
//
// The rings are in ascending radius, so at any r the disks that lie
// inside Cir(q, r) are a prefix and the disks that contain it a suffix;
// inside and cover carry those runs' sums, and only the rings between
// evaluate a lens.
type ring struct {
	r, r2  float64 // R_j = R·j/n and its square
	c      float64 // c_j; rings whose c_j is 0 are left out
	inside float64 // Σ_{i≤j} c_i·π·R_i²: rings 0…j with their disks inside Cir(q, r)
	cover  float64 // Σ_{i≥j} c_i: rings j… with their disks around Cir(q, r), per π·r²
}

func reach(o uncertain.Object, q geom.Point) sweep {
	d := q.Dist(o.Region.C)
	return sweep{d: d, min: math.Max(d-o.Region.R, 0), max: d + o.Region.R}
}

// arm returns s completed for o, appending its rings to buf (the
// caller's reusable backing store) and returning the grown buffer.
func (s sweep) arm(o uncertain.Object, buf []ring) (sweep, []ring) {
	R, n, at := o.Region.R, o.PDF.Bins(), len(buf)
	s.d2 = s.d * s.d
	s.area = math.Pi * R * R
	nn := float64(n) * float64(n)
	u := o.PDF.Bin(0) * nn
	inside := 0.0
	// A ring has too many fields for the compiler to keep one in
	// registers: building one and appending it copies it through the
	// stack, so each field is written in its slot instead.
	buf = slices.Grow(buf, n)
	for j := 1; j <= n; j++ {
		next := 0.0
		if j < n {
			next = o.PDF.Bin(j) * nn / float64(2*j+1)
		}
		if u != next {
			buf = buf[:len(buf)+1]
			g := &buf[len(buf)-1]
			g.r = R * float64(j) / float64(n)
			g.r2 = g.r * g.r
			g.c = u - next
			inside += g.c * (math.Pi * g.r2)
			g.inside = inside
		}
		u = next
	}
	s.rings = buf[at:]
	cover := 0.0
	for j := len(s.rings) - 1; j >= 0; j-- {
		cover += s.rings[j].c
		s.rings[j].cover = cover
	}
	return s, buf
}

// tableFor returns the table o's distance CDF from q is evaluated
// through, or nil for the lens path: a table needs a region off q,
// d ≥ R/tableMaxW, a pdf of at most tableMaxBins bins,
// and at least tableMinShare live objects of view holding the pdf.
func (sc *Scratch) tableFor(view *uncertain.View, o uncertain.Object, d float64) *cdfTable {
	if !inTableDomain(o.Region.R, d) || o.PDF.Bins() > tableMaxBins {
		return nil
	}
	if !sc.forceTables && (view == nil || view.Share(o.PDF) < tableMinShare) {
		return nil
	}
	return tableOf(o.PDF)
}

// inTableDomain reports whether geometry lets a table serve a region of
// radius R at distance d from q: R > 0 and R/d ≤ tableMaxW.
func inTableDomain(R, d float64) bool {
	return R > 0 && R/d <= tableMaxW
}

// armTable completes s for o through tab, with tw, cells and ready the
// scratch's space for its per-(object, query) state.
func (s *sweep) armTable(o uncertain.Object, tab *cdfTable, tw, cells []float64, ready []bool) {
	s.R = o.Region.R
	s.area = math.Pi * s.R * s.R
	s.tab, s.tw, s.cells, s.ready = tab, tw, cells, ready
	s.panel = tab.panel(s.R/s.d, tw)
	tab.fitOnce(s.panel)
	clear(ready)
}

// tableCDF is cdf through the table, for distmin < r < distmax: the
// cell of u = (r − d)/R, contracted over w on its first use, summed at
// t = √(distance to the cell's outer edge).
func (s *sweep) tableCDF(r float64) float64 {
	tab := s.tab
	u := (r - s.d) / s.R
	a := math.Abs(u)
	k := tab.cell(a)
	c := k
	if u > 0 {
		c += tab.side + 1
	}
	cs := (*[tableT]float64)(s.cells[c*tableT:])
	if !s.ready[c] {
		tab.contract(c, s.panel, s.tw, cs[:])
		s.ready[c] = true
	}
	t := tab.edge[k] - a
	if t < 0 {
		t = 0
	}
	f := clenshawPair(cs, math.Sqrt(t)*tab.scale[k]-1)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// cdf returns F(r) = P(dist(q, X) ≤ r), exact for the ring-histogram
// pdf model: the telescoped sum of the lens areas between the disk
// Cir(q, r) and the ring boundary disks, all at the hoisted centre
// distance. A ring disk with R_j ≤ |d − r| lies inside Cir(q, r) (when
// r > d) or apart from it, one with R_j ≥ d + r contains it; both runs
// come from the ring's prefix and suffix sums, and only the rings whose
// circles cross Cir(q, r) evaluate geom.LensCrossing.
func (s *sweep) cdf(r float64) float64 {
	if s.area == 0 {
		if r >= s.d {
			return 1
		}
		return 0
	}
	if r <= s.min {
		return 0
	}
	if r >= s.max {
		return 1
	}
	if s.tab != nil {
		return s.tableCDF(r)
	}
	rs, apart, around := s.rings, math.Abs(s.d-r), s.d+r
	j := 0
	for j < len(rs) && rs[j].r <= apart {
		j++
	}
	acc := 0.0
	if r > s.d && j > 0 {
		acc = rs[j-1].inside
	}
	r2 := r * r
	for ; j < len(rs) && rs[j].r < around; j++ {
		acc += rs[j].c * geom.LensCrossing(s.d, s.d2, r, r2, rs[j].r, rs[j].r2)
	}
	if j < len(rs) {
		acc += math.Pi * r2 * rs[j].cover
	}
	acc /= s.area
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// DistanceCDF returns F(r) = P(dist(q, X) ≤ r) where X is the object's
// uncertain position: the sweep state set up and evaluated once.
func DistanceCDF(o uncertain.Object, q geom.Point, r float64) float64 {
	var rings [uncertain.DefaultBins]ring // 800 bytes; larger pdfs spill to the heap
	s, _ := reach(o, q).arm(o, rings[:0])
	return s.cdf(r)
}

// Dminmax returns min_i distmax(q, Oi), the verification bound of [14]
// used by both indexes to filter candidates, along with the index of
// the minimizing object (-1 for empty input).
func Dminmax(objs []uncertain.Object, q geom.Point) (float64, int) {
	best, arg := math.Inf(1), -1
	for i := range objs {
		if d := objs[i].DistMax(q); d < best {
			best, arg = d, i
		}
	}
	return best, arg
}

// AnswerSet returns the indices (into objs) of the objects with strictly
// positive qualification probability at q: exactly those with
// distmin(Oi, q) < min_{j≠i} distmax(Oj, q).
func AnswerSet(objs []uncertain.Object, q geom.Point) []int {
	return answerSetInto(nil, len(objs), func(i int) (float64, float64) {
		s := reach(objs[i], q)
		return s.min, s.max
	})
}

// answerSetInto is AnswerSet over n candidates whose (distmin, distmax)
// the caller supplies, appending into a caller-owned buffer (the
// integration scratch path reads them from its sweep state).
func answerSetInto(ans []int, n int, span func(i int) (min, max float64)) []int {
	if n == 0 {
		return ans
	}
	if n == 1 {
		return append(ans, 0)
	}
	// Two smallest distmax values decide min_{j≠i}.
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1
	for i := 0; i < n; i++ {
		_, d := span(i)
		if d < m1 {
			m1, m2, arg1 = d, m1, i
		} else if d < m2 {
			m2 = d
		}
	}
	for i := 0; i < n; i++ {
		other := m1
		if i == arg1 {
			other = m2
		}
		if near, _ := span(i); near < other {
			ans = append(ans, i)
		}
	}
	return ans
}
