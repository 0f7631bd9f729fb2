package prob

import (
	"math"
	"sync"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// The distance-CDF table. For an object whose region lies off q, d > R,
// the CDF F(r) of one pdf depends only on u = (r − d)/R ∈ (−1, 1) and
// w = R/d ∈ (0, 1). Its kinks are the ring tangencies r = d ± R_j, the
// lines u = ±j/n, whatever w is (the third tangency, r = R_j − d, needs
// d < R). So a table per pdf splits u into cells at ±j/n, a coarse pdf
// each ring interval further so that no cell is wider than
// 1/tableMinSide, and w ∈ [0, tableMaxW] into tablePanels panels that
// narrow toward w = 1, where F's singularity in w, w = 2/(a_j − u),
// closes on the corner u = −1. In a cell F is analytic but at a ring's
// tangency, the cell's outer edge |u| = e, where the lens of ring
// j = e·n turns tangent and grows like a power 3/2 of the distance; in
// t = √(e − |u|) it is analytic there too. So each (cell, panel) holds
// a tensor Chebyshev series in (t, w), fitted at Chebyshev nodes to F
// evaluated by farCDF. A panel is fitted, all its cells at once, by the
// first query that reads it.
//
// A query contracts a touched cell over w once per (object, query) into
// Scratch, so an evaluation is one square root and a tableT-term
// Chebyshev sum (clenshawPair). bounds.go holds the table's constants.

// cdfTable is one pdf's table. On each side of u = 0 the cells split
// |u| ∈ [0, 1] at the multiples of 1/side, which include the ring radii
// j/n, and the innermost cell is halved. A cell's series in t converges
// at a rate set by the distance to the next singularity against the
// cell's t-range: √2 ranges away for the unhalved innermost cell (the
// first ring's far tangency, at −|u|), which measured 1.7e-12 on a
// spiky pdf; at least two elsewhere, but for a split cell: F is
// analytic at its outer edge, and the next ring's tangency lies a
// t-range or more off the real axis. Cell k of a side covers |u| up to
// edge[k]; cells 0…side are the u ≤ 0 side, cells side+1… the u > 0
// side.
type cdfTable struct {
	side   int       // cells per side but the halved one: a multiple of the bins n, ≥ tableMinSide
	edge   []float64 // cell k's outer edge in |u|: 1/(2·side), then k/side
	scale  []float64 // 2/√(cell k's width): t onto [−1, 1] is t·scale − 1
	rings  []ring    // the pdf's rings for R = 1, what the panels are fitted to
	panels [tablePanels]tablePanel
}

// tablePanel is one w-panel's series, fitted on first use.
type tablePanel struct {
	once sync.Once
	coef []float64 // cell c: tableT×tableW terms at c·tableT·tableW, t-major
}

// panelEdge are the w-panels' bounds: ⅛-wide panels up to ½, then each
// 0.2·(1 − w) wide, so that panel p covers [panelEdge[p],
// panelEdge[p+1]] and the last ends at tableMaxW.
var panelEdge = func() (e [tablePanels + 1]float64) {
	for p := 1; p < tablePanels; p++ {
		if e[p-1] < 0.5 {
			e[p] = float64(p) / 8
		} else {
			e[p] = 1 - 0.8*(1-e[p-1])
		}
	}
	e[tablePanels] = tableMaxW
	return e
}()

// cell returns the cell holding |u| = a on one side.
func (tab *cdfTable) cell(a float64) int {
	if a < tab.edge[0] {
		return 0
	}
	return min(int(a*float64(tab.side)), tab.side-1) + 1
}

// tableOf returns pdf's table, laid out on first use and kept on the
// pdf; its panels are fitted as queries read them (fitOnce).
func tableOf(pdf *uncertain.HistogramPDF) *cdfTable {
	return pdf.Derived(func(p *uncertain.HistogramPDF) any { return newTable(p) }).(*cdfTable)
}

// unitRings returns pdf's ring terms for R = 1, as arm computes them.
func unitRings(pdf *uncertain.HistogramPDF) []ring {
	s, _ := sweep{}.arm(uncertain.Object{Region: geom.Circle{R: 1}, PDF: pdf}, nil)
	return s.rings
}

// farCDF returns F at (u, w) with R = 1, d = 1/w, r = d + u, for
// 0 < w < 1, where no ring disk holds Cir(q, r):
// Σ_j c_j·area(disk(0, a_j) ∩ disk(q, r))/π. A crossing lens is the sum
// of its two circular segments, each (ρ²/2)·(2θ − sin 2θ) for
// half-angle θ, with the angles' sines and cosines multiplied out in u
// and w so nothing cancels as d/R grows: the big circle's segment is of
// order w, where the lens formula's area difference is of order d·R.
func farCDF(rs []ring, u, w float64) float64 {
	acc := 0.0
	for _, g := range rs {
		a := g.r
		switch {
		case a <= -u: // apart
		case a <= u: // inside Cir(q, r)
			acc += g.c * math.Pi * a * a
		default:
			sp := math.Sqrt((a + u) * (a - u) * (2 + w*(u-a)) * (2 + w*(u+a)))
			alpha := math.Atan2(sp, w*(a*a-u*u)-2*u)
			beta := math.Atan2(w*sp, 2+2*u*w+(u*u-a*a)*w*w)
			rho := (1 + u*w) / w
			acc += g.c * (a*a*chordGap(2*alpha) + rho*rho*chordGap(2*beta)) / 2
		}
	}
	return acc / math.Pi
}

// chordGap returns x − sin x without cancellation for small x: its
// Taylor series below 1, where nine terms reach the last bit.
func chordGap(x float64) float64 {
	if x >= 1 {
		return x - math.Sin(x)
	}
	x2 := x * x
	term, sum := x*x2/6, 0.0
	for k := 2; k <= 10; k++ {
		sum += term
		term *= -x2 / float64((2*k)*(2*k+1))
	}
	return sum
}

// newTable lays out pdf's table, with no panel fitted yet: side is the
// bins n, times ⌈tableMinSide/n⌉ for a coarse pdf.
func newTable(pdf *uncertain.HistogramPDF) *cdfTable {
	n := pdf.Bins()
	side := n * ((tableMinSide + n - 1) / n)
	tab := &cdfTable{side: side, edge: make([]float64, side+1), scale: make([]float64, side+1), rings: unitRings(pdf)}
	inner := 0.0
	for k := range tab.edge {
		tab.edge[k] = float64(k) / float64(side)
		if k == 0 {
			tab.edge[k] = 0.5 / float64(side)
		}
		tab.scale[k] = 2 / math.Sqrt(tab.edge[k]-inner)
		inner = tab.edge[k]
	}
	return tab
}

// fitOnce fits every cell of panel p on the panel's first use: exactly
// once, concurrent first callers wait for the one fit.
func (tab *cdfTable) fitOnce(p int) {
	pn := &tab.panels[p]
	pn.once.Do(func() {
		const block = tableT * tableW
		coef := make([]float64, tab.cells()*block)
		for c := 0; c < tab.cells(); c++ {
			tab.fit(c, p, coef[c*block:][:block])
		}
		pn.coef = coef
	})
}

// chebNodes are the Chebyshev nodes of the first kind a fit samples at
// (none on a cell edge or at w = 0), on [0, 1], and the cosines of
// their discrete cosine transform.
var chebNodes = func() (n struct {
	cosT  [tableT][tableT]float64 // cos(j·θ_i)
	cosW  [tableW][tableW]float64
	tNode [tableT]float64
	wNode [tableW]float64
}) {
	for i := 0; i < tableT; i++ {
		th := math.Pi * (float64(i) + 0.5) / tableT
		n.tNode[i] = (1 + math.Cos(th)) / 2 // times the cell's √width
		for j := range n.cosT[i] {
			n.cosT[i][j] = math.Cos(float64(j) * th)
		}
	}
	for l := 0; l < tableW; l++ {
		ph := math.Pi * (float64(l) + 0.5) / tableW
		n.wNode[l] = (1 + math.Cos(ph)) / 2
		for k := range n.cosW[l] {
			n.cosW[l][k] = math.Cos(float64(k) * ph)
		}
	}
	return n
}()

// fit fits cell c, panel p of the table into out: F at the tableT ×
// tableW nodes of chebNodes and their discrete cosine transform.
func (tab *cdfTable) fit(c, p int, out []float64) {
	nd := &chebNodes
	lo, pw := panelEdge[p], panelEdge[p+1]-panelEdge[p]
	var f [tableT][tableW]float64
	var half [tableT][tableW]float64 // f transformed over w
	k, sign := c, -1.0
	if c > tab.side {
		k, sign = c-tab.side-1, 1
	}
	edge, tau := tab.edge[k], 2/tab.scale[k]
	for i, tn := range nd.tNode {
		t := tn * tau
		u := sign * (edge - t*t)
		for l, wn := range nd.wNode {
			f[i][l] = farCDF(tab.rings, u, lo+wn*pw)
		}
	}
	for i := range f {
		for k := 0; k < tableW; k++ {
			s := 0.0
			for l := range f[i] {
				s += f[i][l] * nd.cosW[l][k]
			}
			half[i][k] = s * 2 / tableW
		}
	}
	for j := 0; j < tableT; j++ {
		for k := 0; k < tableW; k++ {
			s := 0.0
			for i := range half {
				s += half[i][k] * nd.cosT[i][j]
			}
			s *= 2.0 / tableT
			if j == 0 {
				s /= 2
			}
			if k == 0 {
				s /= 2
			}
			out[j*tableW+k] = s
		}
	}
}

// cells returns the number of cells, both sides.
func (tab *cdfTable) cells() int { return 2 * (tab.side + 1) }

// panel returns the w-panel of w and the Chebyshev polynomials
// T_0…T_{tableW−1} at w's place in it.
func (tab *cdfTable) panel(w float64, tw []float64) int {
	p := 0
	for p < tablePanels-1 && w >= panelEdge[p+1] {
		p++
	}
	x := 2*(w-panelEdge[p])/(panelEdge[p+1]-panelEdge[p]) - 1
	tw[0], tw[1] = 1, x
	for k := 2; k < tableW; k++ {
		tw[k] = 2*x*tw[k-1] - tw[k-2]
	}
	return p
}

// contract sums cell c's series of fitted panel p over w, at the
// Chebyshev values tw, into the tableT terms of its t-series.
func (tab *cdfTable) contract(c, p int, tw, out []float64) {
	blk := tab.panels[p].coef[c*tableT*tableW:][:tableT*tableW]
	for j := range out[:tableT] {
		row := blk[j*tableW:][:tableW]
		s := 0.0
		for k, t := range tw[:tableW] {
			s += row[k] * t
		}
		out[j] = s
	}
}

// clenshawPair sums a cell's tableT-term Chebyshev series in t at x,
// as its even and odd halves in y = T_2(x) = 2x² − 1:
// T_2m(x) = T_m(y) and T_2m+1(x) = x·V_m(y), with V the Chebyshev
// polynomials of the third kind (V_0 = 1, V_1 = 2y − 1, and T's
// three-term recurrence). The halves' two Clenshaw recurrences are
// independent, so their chain of dependent steps is half as long as
// one recurrence over all terms, and each step subtracts b_{m+2} off
// that chain.
func clenshawPair(cs *[tableT]float64, x float64) float64 {
	y := 2*x*x - 1
	y2 := 2 * y
	e1, e2, o1, o2 := 0.0, 0.0, 0.0, 0.0
	for m := tableT/2 - 1; m >= 1; m-- {
		e1, e2 = y2*e1+(cs[2*m]-e2), e1
		o1, o2 = y2*o1+(cs[2*m+1]-o2), o1
	}
	return y*e1 - e2 + cs[0] + x*((y2-1)*o1-o2+cs[1])
}
