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
// with these constants measured ≤ 4.3e-14: at 20 000 points, a third of
// them within 1e-6 of a cell edge, on each of 48 parityPDF shapes, and
// in TestCDFTableParity, which logs it. The alternatives quoted below
// were measured the same way.
const (
	// tableT and tableW are the series' terms in t and in w. 14 terms
	// in t measured 2.4e-12 and 6 in w 2.1e-11, over parityTolF; a
	// contraction costs tableT·tableW multiply-adds and an evaluation a
	// tableT-term Clenshaw sum.
	tableT = 16
	tableW = 8
	// tablePanels splits w ∈ [0, tableMaxW] into equal panels, each
	// with its own series: F's nearest singularity in w lies at w ≥ 1,
	// close to the range's end. One panel measured 3.8e-10 and two
	// 3.6e-12, over parityTolF.
	tablePanels = 4
	// tableMaxW bounds the table's domain, w = R/d ≤ ½. While d ≥ R no
	// ring disk reaches around q (the r = R_j − d tangency needs
	// d < R), so every kink of F is a line of constant u; but F's
	// singularity in w, at w = 2/(a_j − u), reaches the domain's corner
	// u = −1 at w = 1. Equal panels up to w = 1 measured 2.5e-7 there,
	// and up to ¾ (six panels) 7.6e-13.
	tableMaxW = 0.5
	// tableMaxBins bounds the pdfs that get a table: its memory,
	// 2(n+1)·tablePanels·tableT·tableW floats (172 KB at 20 bins), grows
	// with the bins n, and its build time with n², about 20 ms at 20
	// bins and 120 ms at 50.
	tableMaxBins = 64
	// tableMinShare is the number of live objects of a query's view that
	// must hold a pdf for it to use the table: a rare shape does not pay
	// for a build. The count is the view's, so whether a query uses the
	// table depends on the live set, never on history.
	tableMinShare = 64
)
