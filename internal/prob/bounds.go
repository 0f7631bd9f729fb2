package prob

// The kernel's stated bounds and the distance-CDF table's constants,
// each beside the invariant it protects.

// Parity bars of the sweep kernel against the reference kernel
// (ref_test.go), over every configuration family of the parity tests,
// and of the table against the sweep kernel.
const (
	parityTolF = 1e-12 // max |ΔF| per DistanceCDF evaluation
	parityTolP = 1e-9  // max |Δp| per Probs entry (bench/oracle.go's probTol)

	// Both bars are flat while the region is not small against its
	// distance, d/R ≤ parityCond. Beyond it neither kernel can hold
	// 1e-12: the lens of a far, small disk is the difference of two
	// areas of order d·R that agree down to order R², so each kernel —
	// and the ulp of r itself — carries rounding of order ε·d/R in F,
	// and the two differ by that much (measured: ≈ 8e-15·d/R, linear up
	// to d/R = 1e8). There the bar scales with d/R.
	parityCond = 50
)

// The table (table.go). Against farCDF, the function it fits, its error
// with these constants measured ≤ 3.1e-14 on each parityShapes shape at
// 20 000 points, half of them at w ∈ [½, tableMaxW], one in seven at
// tableMaxW, a third within 1e-6 of a cell edge; and ≤ 1.2e-13 on 48
// further parityPDF draws, the worst a 50-bin gapped pdf in the panel
// [⅜, ½] that the four-panel table to w = ½ had too. TestCDFTableParity
// logs it. The alternatives quoted below were measured the same way.
const (
	// tableT and tableW are the series' terms in t and in w. 14 terms
	// in t measured 2.4e-12 and 6 in w 2.1e-11, over parityTolF; a
	// contraction costs tableT·tableW multiply-adds and an evaluation a
	// tableT-term Chebyshev sum.
	tableT = 16
	tableW = 8
	// tablePanels splits w ∈ [0, tableMaxW] into panels, each with its
	// own series (panelEdge): ⅛ wide up to ½, then each 0.2·(1 − w)
	// wide, because F's nearest singularity in w, w = 2/(a_j − u),
	// closes on the corner u = −1, w = 1, and a panel that narrows with
	// 1 − w keeps the same ratio of its width to that distance. Panels
	// 0.3·(1 − w) wide, 16 of them to w ≤ 0.993, measured 9.8e-13;
	// equal panels to w = 1 2.5e-7, and to ¾ (six panels) 7.6e-13.
	tablePanels = 16
	// tableMaxW bounds the table's domain, w = R/d ≤ 1 − ½·0.8¹² ≈ 0.966
	// (d ≥ 1.036R), where the 16th panel ends. While d > R no ring disk
	// reaches around q (the r = R_j − d tangency needs d < R), so every
	// kink of F is a line of constant u. Of the answer-set objects of
	// 600 serving queries (TestLensPathShare) the lens path keeps 11.6 %
	// at w ≤ ½, 2.6 % at 12 panels (w ≤ 0.916), 2.27 % at 16, and 2.10 %
	// with the whole of d > R: the rest lie around q, d ≤ R.
	tableMaxW = 1 - 0.5*16777216.0/244140625
	// tableMinSide is the fewest cells on each side of u = 0: a pdf of
	// n < tableMinSide bins splits each ring interval into
	// ⌈tableMinSide/n⌉ cells, so no cell is wider than 1/16 in |u|. The
	// wide cells of a coarse pdf, not the panels, limit the fit near
	// the corner u = −1, w = tableMaxW: on the 1-bin shape one cell per
	// ring interval measured 1.0e-10 there, cells ⅛ wide 2.2e-13, and
	// 1/16 wide 1.6e-14.
	tableMinSide = 16
	// tableMaxBins bounds the pdfs that get a table: its memory,
	// 2(side+1)·tablePanels·tableT·tableW floats (688 KB at 20 bins,
	// 2.1 MB at 64), grows with the bins n, and a panel's fit time with
	// n². A panel is fitted on its first use, about 6 ms at 20 bins and
	// 40 ms at 64, where the whole table takes 90 ms and 0.66 s.
	tableMaxBins = 64
	// tableMinShare is the number of live objects of a query's view that
	// must hold a pdf for it to use the table: a rare shape does not pay
	// for a build. The count is the view's, so whether a query uses the
	// table depends on the live set, never on history.
	tableMinShare = 64
)
