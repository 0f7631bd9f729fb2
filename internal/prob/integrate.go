package prob

import (
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// Scratch holds the reusable buffers of the probability integration —
// the answer-set index list, the candidates' sweep state with the rings
// or the contracted table cells behind it, and the quadrature's node
// tables and level vectors that Probs used to allocate per query. Batch
// engines keep one per worker (pooled through batchState) so
// steady-state PNN probability computation allocates nothing. A scratch is single-goroutine state;
// slices returned through it are valid until the next call with the
// same scratch.
type Scratch struct {
	out    []float64
	ans    []int
	sw     []sweep   // one per candidate
	rings  []ring    // backing store of the answer set's sweep rings
	nodes  []float64 // F_a at the dyadic radii: node j, object a at [j·k+a]
	surv   []float64 // G_a = Π_{b≠a} (1 − F_b) at the same nodes, same layout
	levels []float64 // this level's sums, the last level's, its extrapolates
	tw     []float64 // the table objects' w-polynomials, tableW each
	cells  []float64 // their contracted cells, tableT per cell
	ready  []bool    // which of those cells are contracted

	// forceTables arms every object a table can serve through one,
	// whatever its share (the tests' switch).
	forceTables bool

	// The last ProbsScratch call's cost in CDF evaluations (radii ×
	// answer-set size) and whether its quadrature ran out of levels.
	CDFEvals int
	Capped   bool
}

func (sc *Scratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Probs computes the qualification probability of every object in objs
// for the PNN at q, using the numerical-integration method of [14]:
//
//	P_i = ∫ (dF_i/dr)(r) · Π_{j≠i} (1 − F_j(r)) dr
//
// evaluated by Integrate over the support [min distmin, second-smallest
// distmax]. Objects outside the answer set get exactly 0.
//
// The caller typically passes the candidate set produced by an index;
// passing the full dataset is valid, only slower.
func Probs(objs []uncertain.Object, q geom.Point) []float64 {
	return ProbsScratch(objs, q, nil)
}

// ProbsScratch is Probs through an optional scratch: the returned slice
// aliases sc.out and is valid until the next call with the same
// scratch. A nil scratch allocates fresh buffers, making it identical
// to Probs. The arithmetic — and therefore every probability, bitwise —
// is the same on both paths.
func ProbsScratch(objs []uncertain.Object, q geom.Point, sc *Scratch) []float64 {
	return ProbsShared(nil, objs, q, sc)
}

// ProbsShared is ProbsScratch for objects of view's population, whose
// pdfs are the view's store's interned ones. An answer-set object whose
// pdf at least tableMinShare of view's live objects hold, and whose
// region lies off q (d ≥ R/tableMaxW ≈ 1.036R), has its distance CDF evaluated through the pdf's table (table.go), within
// parityTolF of the lens path. A nil view uses no table.
func ProbsShared(view *uncertain.View, objs []uncertain.Object, q geom.Point, sc *Scratch) []float64 {
	if sc == nil {
		sc = &Scratch{}
	}
	sc.CDFEvals, sc.Capped = 0, false
	out := sc.floats(&sc.out, len(objs))
	clear(out)
	sw := sc.sw[:0]
	for i := range objs {
		sw = append(sw, reach(objs[i], q))
	}
	sc.sw = sw
	sc.ans = answerSetInto(sc.ans[:0], len(sw), func(i int) (float64, float64) {
		return sw[i].min, sw[i].max
	})
	ans := sc.ans
	switch len(ans) {
	case 0:
		return out
	case 1:
		out[ans[0]] = 1
		return out
	}

	// Integration support: every integrand vanishes beyond the smallest
	// distmax (the minimizing object's density is zero there and its
	// survival factor kills every other product), so [lo, dminmax]
	// suffices — which is also why the dminmax candidate filter of [14]
	// is exact.
	lo, hi := math.Inf(1), math.Inf(1)
	for _, i := range ans {
		lo = math.Min(lo, sw[i].min)
	}
	for i := range sw {
		hi = math.Min(hi, sw[i].max)
	}
	if hi <= lo {
		// Degenerate support (can happen with coincident point objects):
		// split the mass evenly among answer objects.
		for _, i := range ans {
			out[i] = 1 / float64(len(ans))
		}
		return out
	}

	sc.rings = sc.rings[:0]
	tabled, cells := 0, 0
	for _, i := range ans {
		if sw[i].tab = sc.tableFor(view, objs[i], sw[i].d); sw[i].tab != nil {
			tabled++
			cells += sw[i].tab.cells()
		} else {
			sw[i], sc.rings = sw[i].arm(objs[i], sc.rings)
		}
	}
	if tabled > 0 {
		tw := sc.floats(&sc.tw, tabled*tableW)
		cs := sc.floats(&sc.cells, cells*tableT)
		if cap(sc.ready) < cells {
			sc.ready = make([]bool, cells)
		}
		ready := sc.ready[:cells]
		for _, i := range ans {
			if tab := sw[i].tab; tab != nil {
				n := tab.cells()
				sw[i].armTable(objs[i], tab, tw[:tableW], cs[:n*tableT], ready[:n])
				tw, cs, ready = tw[tableW:], cs[n*tableT:], ready[n:]
			}
		}
	}
	p := Integrate(len(ans), lo, hi, func(a int, r float64) float64 {
		return sw[ans[a]].cdf(r)
	}, sc)
	for a, i := range ans {
		out[i] = p[a]
	}
	return out
}

// The quadrature. Level S of the PNN integral holds the CDFs at the
// 2S+1 radii r_u = lo + u·h/2 of S uniform panels of width h — the
// panel ends and their midpoints — and its sum is the trapezoid-product
// Riemann–Stieltjes sum over the 2S half-panels,
//
//	P_S[a] = Σ_u (F_a(r_{u+1}) − F_a(r_u)) · (G_a(r_u) + G_a(r_{u+1}))/2,
//	G_a = Π_{b≠a} (1 − F_b),
//
// with each node's G computed once, when its F is. The sum is off by a
// multiple of h² where the CDFs are smooth, so it is taken on the
// dyadic levels S = quadFirst, 2·quadFirst, … (each evaluates only its
// midpoints: its panel ends are the level before) and extrapolated,
// R_S = (4·P_S − P_{S/2})/3, until two consecutive extrapolates agree
// to quadTol for every object and no CDF rises by more than quadRise
// across one panel — a step inside a panel moves no level's sum, and
// the extrapolates would agree on a wrong value.
const (
	quadFirst = 8
	quadCap   = 256
	quadTol   = 3e-6
	quadRise  = 0.25
)

// Integrate evaluates P_a = ∫ dF_a · Π_{b≠a} (1 − F_b) over [lo, hi]
// for the k distributions cdf(a, ·) into a slice of sc, with the cost
// in sc.CDFEvals. Where a uniform grid cannot resolve the CDFs (point
// objects, concentric regions) the levels run out: sc.Capped is set
// and p is the plain quadCap-level sum. An extrapolate outside (0, 1]
// yields to its level's plain sum too: p[a] > 0 exactly when that is.
func Integrate(k int, lo, hi float64, cdf func(a int, r float64) float64, sc *Scratch) (p []float64) {
	nodes := sc.floats(&sc.nodes, (2*quadCap+1)*k)
	surv := sc.floats(&sc.surv, (2*quadCap+1)*k)
	lv := sc.floats(&sc.levels, 3*k)
	p, coarse, rich := lv[:k], lv[k:2*k], lv[2*k:]
	for s := quadFirst; ; s *= 2 {
		sc.CDFEvals = (2*s + 1) * k
		rise := refine(p, nodes, surv, s, lo, hi, cdf)
		if s > quadFirst {
			worst := 0.0
			for a := range p {
				r := (4*p[a] - coarse[a]) / 3
				worst = math.Max(worst, math.Abs(r-rich[a]))
				rich[a] = r
			}
			if s > 2*quadFirst && worst <= quadTol && rise <= quadRise {
				for a, r := range rich {
					if r > 0 && r <= 1 {
						p[a] = r
					}
				}
				return p
			}
		}
		sc.Capped = s == quadCap
		if sc.Capped {
			return p
		}
		copy(coarse, p)
	}
}

// refine completes the node tables for level s — F and G at the panel
// midpoints, and at the first level at the panel ends (later they are
// the coarser level's nodes) — and sets p to the plain level-s sum in a
// fixed s-panel rule's arithmetic: its radii lo + t·h and lo + (t+½)·h
// with h = (hi−lo)/s, bitwise, since s is a power of two. It returns
// the largest rise of one CDF across one panel (two half-panels).
func refine(p, nodes, surv []float64, s int, lo, hi float64, cdf func(a int, r float64) float64) (rise float64) {
	k := len(p)
	h := (hi - lo) / float64(s)
	step := 2 * quadCap / s // node-table distance between a panel's ends
	half := step / 2
	row := func(tab []float64, j int) []float64 { return tab[j*k : (j+1)*k] }
	fill := func(j int, r float64) {
		f, g := row(nodes, j), row(surv, j)
		for a := range f {
			f[a] = cdf(a, r)
		}
		for a := range g {
			prod := 1.0
			for b, fb := range f {
				if b != a {
					prod *= 1 - fb
				}
			}
			g[a] = prod
		}
	}
	if s == quadFirst {
		for t := 0; t <= s; t++ {
			fill(t*step, lo+float64(t)*h)
		}
	}
	for t := 0; t < s; t++ {
		fill(t*step+half, lo+(float64(t)+0.5)*h)
	}
	clear(p)
	for u := 0; u < 2*s; u++ {
		f0, f1 := row(nodes, u*half), row(nodes, (u+1)*half)
		g0, g1 := row(surv, u*half), row(surv, (u+1)*half)
		for a := range p {
			if df := f1[a] - f0[a]; df > 0 {
				p[a] += df * (g0[a] + g1[a]) / 2
			}
		}
	}
	for t := 0; t < s; t++ {
		f0, f1 := row(nodes, t*step), row(nodes, (t+1)*step)
		for a := range f0 {
			if df := f1[a] - f0[a]; df > rise {
				rise = df
			}
		}
	}
	return rise
}
