package prob

import (
	"math"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// The distance-CDF table. For an object whose region is small against
// its distance from q, d ≥ 2R, the CDF F(r) of one pdf depends only on
// u = (r − d)/R ∈ (−1, 1) and w = R/d ∈ (0, ½]. Its kinks are the ring
// tangencies r = d ± R_j, the lines u = ±j/n, whatever w is (the third
// tangency, r = R_j − d, needs d < R). So a table per pdf splits u into
// cells at ±j/n, and w into tablePanels equal panels. In a cell F is
// analytic but at the cell's outer edge |u| = e, where the lens of ring
// j = e·n turns tangent and grows like a power 3/2 of the distance; in
// t = √(e − |u|) it is analytic there too. So each (cell, panel) holds
// a tensor Chebyshev series in (t, w), fitted at Chebyshev nodes to F
// evaluated by farCDF.
//
// A query contracts a touched cell over w once per (object, query) into
// Scratch, so an evaluation is one square root and a tableT-term
// Clenshaw sum. bounds.go holds the table's constants.

// cdfTable is one pdf's table. On each side of u = 0 the cells split
// |u| ∈ [0, 1] at the ring radii j/n, and the innermost cell is halved.
// A cell's series in t converges at a rate set by the distance to the
// next singularity against the cell's t-range: √2 ranges away for the
// unhalved innermost cell (the first ring's far tangency, at −|u|),
// which measured 1.7e-12 on a spiky pdf; at least two elsewhere. Cell k
// of a side covers |u| up to edge[k]; cells 0…side are the u ≤ 0 side,
// cells side+1… the u > 0 side.
type cdfTable struct {
	side  int       // ring-interval cells per side: the bins n
	edge  []float64 // cell k's outer edge in |u|: 1/(2·side), then k/side
	scale []float64 // 2/√(cell k's width): t onto [−1, 1] is t·scale − 1
	coef  []float64 // cell c, panel p: tableT×tableW terms at (c·tablePanels+p)·tableT·tableW, t-major
}

// cell returns the cell holding |u| = a on one side.
func (tab *cdfTable) cell(a float64) int {
	if a < tab.edge[0] {
		return 0
	}
	return min(int(a*float64(tab.side)), tab.side-1) + 1
}

// tableOf returns pdf's table, built on first use and kept on the pdf.
func tableOf(pdf *uncertain.HistogramPDF) *cdfTable {
	return pdf.Derived(func(p *uncertain.HistogramPDF) any { return buildTable(p) }).(*cdfTable)
}

// unitRings returns pdf's ring terms for R = 1, as arm computes them.
func unitRings(pdf *uncertain.HistogramPDF) []ring {
	s, _ := sweep{}.arm(uncertain.Object{Region: geom.Circle{R: 1}, PDF: pdf}, nil)
	return s.rings
}

// farCDF returns F at (u, w) with R = 1, d = 1/w, r = d + u, for
// 0 < w ≤ ½: Σ_j c_j·area(disk(0, a_j) ∩ disk(q, r))/π. A crossing lens
// is the sum of its two circular segments, each (ρ²/2)·(2θ − sin 2θ)
// for half-angle θ, with the angles' sines and cosines multiplied out
// in u and w so nothing cancels as d/R grows: the big circle's segment
// is of order w, where the lens formula's area difference is of order
// d·R.
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

// newTable lays out the cells of a table for a pdf of side bins, with
// no series fitted yet.
func newTable(side int) *cdfTable {
	tab := &cdfTable{side: side, edge: make([]float64, side+1), scale: make([]float64, side+1)}
	inner := 0.0
	for k := range tab.edge {
		tab.edge[k] = float64(k) / float64(side)
		if k == 0 {
			tab.edge[k] = 0.5 / float64(side)
		}
		tab.scale[k] = 2 / math.Sqrt(tab.edge[k]-inner)
		inner = tab.edge[k]
	}
	tab.coef = make([]float64, tab.cells()*tablePanels*tableT*tableW)
	return tab
}

// buildTable fits pdf's table, every (cell, panel) by fit.
func buildTable(pdf *uncertain.HistogramPDF) *cdfTable {
	tab := newTable(pdf.Bins())
	rs := unitRings(pdf)
	for c := 0; c < tab.cells(); c++ {
		for p := 0; p < tablePanels; p++ {
			tab.fit(rs, c, p)
		}
	}
	return tab
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

// fit fits cell c, panel p of the table for the unit rings rs: F at the
// tableT × tableW nodes of chebNodes and their discrete cosine
// transform.
func (tab *cdfTable) fit(rs []ring, c, p int) {
	const block = tableT * tableW
	nd := &chebNodes
	pw := tableMaxW / tablePanels
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
			f[i][l] = farCDF(rs, u, (float64(p)+wn)*pw)
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
	out := tab.coef[(c*tablePanels+p)*block:][:block]
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
	pw := tableMaxW / tablePanels
	p := min(int(w/pw), tablePanels-1)
	x := 2*(w-float64(p)*pw)/pw - 1
	tw[0], tw[1] = 1, x
	for k := 2; k < tableW; k++ {
		tw[k] = 2*x*tw[k-1] - tw[k-2]
	}
	return p
}

// contract sums cell c's series of panel p over w, at the Chebyshev
// values tw, into the tableT terms of its t-series.
func (tab *cdfTable) contract(c, p int, tw, out []float64) {
	blk := tab.coef[(c*tablePanels+p)*tableT*tableW:][:tableT*tableW]
	for j := range out[:tableT] {
		row := blk[j*tableW:][:tableW]
		s := 0.0
		for k, t := range tw[:tableW] {
			s += row[k] * t
		}
		out[j] = s
	}
}

// clenshaw sums the Chebyshev series cs at x.
func clenshaw(cs []float64, x float64) float64 {
	x2 := 2 * x
	b1, b2 := 0.0, 0.0
	for j := len(cs) - 1; j >= 1; j-- {
		b1, b2 = x2*b1-b2+cs[j], b1
	}
	return x*b1 - b2 + cs[0]
}
