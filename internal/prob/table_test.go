package prob

import (
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/perfgate"
	"uvdiagram/internal/uncertain"
)

// armedTable returns o's sweep from q armed through its pdf's table,
// or nil where no table serves it (R/d > tableMaxW, a point object).
func armedTable(o uncertain.Object, q geom.Point) *sweep {
	sc := Scratch{forceTables: true}
	s := reach(o, q)
	tab := sc.tableFor(nil, o, s.d)
	if tab == nil {
		return nil
	}
	n := tab.cells()
	s.armTable(o, tab, make([]float64, tableW), make([]float64, n*tableT), make([]bool, n))
	return &s
}

// TestCDFTableParity holds the table to |ΔF| ≤ parityTol against the
// lens path for every parityPDF shape: at every w-panel edge to the ulp
// on both sides and at tableMaxW, then at d/R from 1/tableMaxW up to
// 1e8; at random radii, at every ring tangency and at every cell edge —
// the ring radii and, for a coarse pdf, the edges that split its ring
// intervals — to the ulp on both sides. It logs the largest distance to
// farCDF, the function the table fits.
func TestCDFTableParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20100304))
	geometries := 60
	if testing.Short() || raceEnabled {
		geometries = 12
	}
	var edgeW []float64 // w at the panel edges: d = 1, R = w, so R/d is w exactly
	for _, e := range panelEdge[1:] {
		edgeW = append(edgeW, e, math.Nextafter(e, 0), math.Nextafter(e, 1))
	}
	for _, pdf := range parityShapes() {
		rs := unitRings(pdf)
		var worst, worstFit float64
		evals := 0
		check := func(o uncertain.Object, q geom.Point) {
			s := armedTable(o, q)
			if s == nil {
				return // R/d above tableMaxW
			}
			tol := parityTol(o, q)
			rs2 := parityRadii(rng, o, q)
			for k := range s.tab.edge {
				for _, sign := range []float64{-1, 1} {
					r := s.d + sign*o.Region.R*s.tab.edge[k]
					rs2 = append(rs2, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
				}
			}
			for _, r := range rs2 {
				got, want := s.cdf(r), DistanceCDF(o, q, r)
				if df := math.Abs(got - want); math.IsNaN(got) || df > tol {
					t.Fatalf("%d bins, R = %v, d/R = %v: table F(%v) = %v, lens path %v (Δ %.3g > %.3g)",
						pdf.Bins(), o.Region.R, s.d/o.Region.R, r, got, want, df, tol)
				} else if tol == parityTolF {
					worst = math.Max(worst, df)
				}
				if r > s.min && r < s.max { // inside, where the table answers
					worstFit = math.Max(worstFit, math.Abs(got-farCDF(rs, (r-s.d)/s.R, s.R/s.d)))
				}
				evals++
			}
		}
		for _, w := range edgeW {
			check(uncertain.New(0, geom.Circle{C: geom.Pt(1, 0), R: w}, pdf), geom.Pt(0, 0))
		}
		for g := 0; g < geometries; g++ {
			R := logUniform(rng, 1e-3, 1e3)
			w := logUniform(rng, 1e-8, tableMaxW)
			switch {
			case g == 1:
				w = tableMaxW // off the axis: R/d rounds either way
			case g == 2:
				w = 1e-8
			case g%3 == 0:
				w = 0.5 + (tableMaxW-0.5)*rng.Float64() // the graded panels
			}
			q := geom.Pt((rng.Float64()-0.5)*1e4, (rng.Float64()-0.5)*1e4)
			o := uncertain.New(0, geom.Circle{C: geom.Pt(q.X+R/w, q.Y), R: R}, pdf)
			if g%2 == 1 { // off the axis, where d carries rounding
				phi := rng.Float64() * 2 * math.Pi
				o.Region.C = q.Add(geom.PolarUnit(phi).Scale(R / w))
			}
			check(o, q)
		}
		t.Logf("%2d bins %v…: %d evaluations, max |ΔF| = %.3g against the lens path at d/R ≤ %d, %.3g against farCDF",
			pdf.Bins(), pdf.Weights()[:1], evals, worst, parityCond, worstFit)
	}
}

// FuzzCDFTable holds the table of 1–64 fuzzed bars to parityTol against
// the lens path at a fuzzed u ∈ (−1, 1) and w = R/d ∈ [1e-8, tableMaxW]:
// log-uniform up to ½ for half of wf's range, uniform over the graded
// panels beyond for the other half.
func FuzzCDFTable(f *testing.F) {
	f.Add([]byte{1}, 0.3, 0.5)
	f.Add([]byte{0, 0, 5, 0, 9, 1, 1}, -0.99, 0.0)
	f.Add([]byte{255, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7}, 1e-9, 0.999)
	f.Fuzz(func(t *testing.T, bars []byte, u, wf float64) {
		if len(bars) == 0 || math.IsNaN(u) || math.IsInf(u, 0) || math.IsNaN(wf) || math.IsInf(wf, 0) {
			return
		}
		weights := make([]float64, min(len(bars), 64))
		for i := range weights {
			weights[i] = float64(bars[i])
		}
		pdf, err := uncertain.NewHistogramPDF(weights)
		if err != nil {
			return // no mass
		}
		u = math.Mod(u, 1)
		w := 2 * math.Mod(math.Abs(wf), 1)
		if w < 1 {
			w = 1e-8 * math.Pow(0.5/1e-8, w)
		} else {
			w = 0.5 + (tableMaxW-0.5)*(w-1)
		}
		const R = 1.0
		o := uncertain.New(0, geom.Circle{C: geom.Pt(R/w, 0), R: R}, pdf)
		q := geom.Pt(0, 0)
		s := reach(o, q)
		if !(R/s.d <= tableMaxW) {
			return // R/d rounded above tableMaxW
		}
		// Lay the table out as production does, but fit only the cell and
		// panel the evaluation reads: the cell of u as tableCDF recomputes
		// it from r, in a panel marked fitted.
		tab := newTable(pdf)
		n := tab.cells()
		tw := make([]float64, tableW)
		p := tab.panel(R/s.d, tw)
		pn := &tab.panels[p]
		pn.once.Do(func() { pn.coef = make([]float64, n*tableT*tableW) }) // fitted below, one cell
		s.armTable(o, tab, tw, make([]float64, n*tableT), make([]bool, n))
		r := s.d + u*R
		ur := (r - s.d) / R
		c := tab.cell(math.Abs(ur))
		if ur > 0 {
			c += tab.side + 1
		}
		tab.fit(c, p, pn.coef[c*tableT*tableW:][:tableT*tableW])
		got, want := s.cdf(r), DistanceCDF(o, q, r)
		if df := math.Abs(got - want); math.IsNaN(got) || df > parityTol(o, q) {
			t.Fatalf("%d bars %v, d/R = %v: table F(%v) = %v, lens path %v (Δ %.3g > %.3g)",
				len(weights), weights, s.d, r, got, want, df, parityTol(o, q))
		}
	})
}

// TestCDFTableConcurrentBuild arms one shared, never-armed pdf from
// many goroutines at once, on objects in two w-panels: the lazy layout
// and each panel's lazy fit are exactly-once, so all of them get the
// one table, the one series of each panel read, and the same
// probabilities, and no other panel is fitted.
func TestCDFTableConcurrentBuild(t *testing.T) {
	const goroutines = 16
	pdf := uncertain.Gaussian(uncertain.DefaultBins, 1.0/3)
	objs := []uncertain.Object{
		uncertain.New(0, geom.Circle{C: geom.Pt(100, 0), R: 10}, pdf),    // w = 0.1, panel 0
		uncertain.New(1, geom.Circle{C: geom.Pt(0, 104), R: 12}, pdf),    // w ≈ 0.115, panel 0
		uncertain.New(2, geom.Circle{C: geom.Pt(-99.75, 0), R: 95}, pdf), // w ≈ 0.952, a graded panel
	}
	q := geom.Pt(0, 0)
	tabs := make([]*cdfTable, goroutines)
	coefs := make([][]*float64, goroutines)
	probs := make([][]float64, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := Scratch{forceTables: true}
			<-start
			probs[g] = append([]float64(nil), ProbsScratch(objs, q, &sc)...)
			tabs[g] = sc.sw[0].tab
			for _, s := range sc.sw {
				if s.tab != tabs[g] {
					t.Errorf("goroutine %d: one pdf armed with two tables", g)
					return
				}
				coefs[g] = append(coefs[g], &s.tab.panels[s.panel].coef[0])
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := range tabs {
		if tabs[g] == nil || tabs[g] != tabs[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 %p", g, tabs[g], tabs[0])
		}
		for i, c := range coefs[g] {
			if c != coefs[0][i] {
				t.Fatalf("goroutine %d read object %d's panel at %p, goroutine 0 at %p", g, i, c, coefs[0][i])
			}
		}
		for i, p := range probs[g] {
			if math.Float64bits(p) != math.Float64bits(probs[0][i]) {
				t.Fatalf("goroutine %d: p[%d] = %v, goroutine 0 %v", g, i, p, probs[0][i])
			}
		}
	}
	if tabs[0] != tableOf(pdf) {
		t.Fatal("a later arm built a second table")
	}
	fitted := 0
	for p := range tabs[0].panels {
		if tabs[0].panels[p].coef != nil {
			fitted++
		}
	}
	if fitted != 2 {
		t.Fatalf("%d panels fitted, want the 2 the objects read", fitted)
	}
}

// TestLensPathShare is a count gate on what geometry keeps off the
// table: on the serving stream, at most maxLensShare of the answer-set
// objects may be point objects or lie too close to q, R/d > tableMaxW.
// The share read 11.6 % with the table's domain at w ≤ ½ (d ≥ 2R), and
// reads 2.27 % at w ≤ tableMaxW.
func TestLensPathShare(t *testing.T) {
	const maxLensShare = 0.04
	cases, qs := servingStream(600)
	lens, all := 0, 0
	for c, objs := range cases {
		for _, o := range objs {
			if !inTableDomain(o.Region.R, qs[c].Dist(o.Region.C)) {
				lens++
			}
		}
		all += len(objs)
	}
	share := float64(lens) / float64(all)
	t.Logf("%d queries: %d of %d answer-set objects on the lens path (%.2f %%)", len(cases), lens, all, 100*share)
	if share > maxLensShare {
		t.Errorf("%.2f %% of answer-set objects on the lens path, want ≤ %.0f %%", 100*share, 100*maxLensShare)
	}
}

// TestClenshawPair holds clenshawPair, the even and odd halves of a
// t-series summed in y = 2x² − 1, to clenshaw's accuracy, the one
// recurrence in x it replaced: on unit-scale coefficients over [−1, 1],
// against the series summed in 200-bit arithmetic, its worst error may
// exceed clenshaw's by half (they measured 1.29e-14 and 1.42e-14). Both
// err most near x = ±1, where a Clenshaw sum's rounding grows with the
// square of its terms.
func TestClenshawPair(t *testing.T) {
	rng := rand.New(rand.NewSource(20100306))
	var cs [tableT]float64
	var pair, one float64
	for i := 0; i < 20000; i++ {
		for j := range cs {
			cs[j] = 2*rng.Float64() - 1
		}
		x := 2*rng.Float64() - 1
		switch i % 50 {
		case 0:
			x = 1
		case 1:
			x = -1
		case 2:
			x = 0
		}
		exact := exactCheb(cs[:], x)
		pair = math.Max(pair, math.Abs(clenshawPair(&cs, x)-exact))
		one = math.Max(one, math.Abs(clenshaw(cs[:], x)-exact))
	}
	t.Logf("max error: clenshawPair %.3g, clenshaw %.3g", pair, one)
	if pair > 1.5*one {
		t.Errorf("clenshawPair errs %.3g, over 1.5× clenshaw's %.3g", pair, one)
	}
}

// clenshaw sums the Chebyshev series cs at x, one recurrence in x.
func clenshaw(cs []float64, x float64) float64 {
	x2 := 2 * x
	b1, b2 := 0.0, 0.0
	for j := len(cs) - 1; j >= 1; j-- {
		b1, b2 = x2*b1-b2+cs[j], b1
	}
	return x*b1 - b2 + cs[0]
}

// exactCheb sums the Chebyshev series cs at x term by term in 200-bit
// arithmetic, rounded once.
func exactCheb(cs []float64, x float64) float64 {
	num := func(v float64) *big.Float { return new(big.Float).SetPrec(200).SetFloat64(v) }
	bx, t0, t1, sum := num(x), num(1), num(x), num(cs[0])
	for _, c := range cs[1:] {
		sum.Add(sum, num(0).Mul(t1, num(c)))
		t2 := num(0).Mul(bx, t1)
		t0, t1 = t1, t2.Sub(t2.Add(t2, t2), t0)
	}
	f, _ := sum.Float64()
	return f
}

// TestCDFTableRatio is the blocking, host-independent perf gate of the
// table: with tables on, ProbsScratch must integrate 256 seeded cases
// at least minTableRatio times faster than through the lens path, both
// timed in CPU time in this process, interleaved (perfgate.Ratio). The
// cases are TestKernelRatio's — its seed, its 2–6 overlapping
// paper-Gaussian candidates of radius 4–8 — placed as a served answer
// set is, each region of half the cases 2–3 radii from q and of the
// other half between 1/tableMaxW and 2 radii, the graded panels:
// TestKernelRatio's own put q inside or beside every region, where
// d < R and no table applies. The bound sits between the ratio
// measured (3.8–4.9) and the ratio with the table path's work doubled,
// every evaluation and contraction done twice (2.3–2.6); with every
// case 2–3 radii out they read 4.1–4.4 and 2.1–2.2.
func TestCDFTableRatio(t *testing.T) {
	perfgate.Skip(t)
	const minTableRatio = 3.0
	type kcase struct {
		objs []uncertain.Object
		q    geom.Point
	}
	rng := rand.New(rand.NewSource(20100301))
	pdf := uncertain.PaperGaussian()
	cases := make([]kcase, 256)
	for i := range cases {
		objs := make([]uncertain.Object, 2+rng.Intn(5))
		for j := range objs {
			r := 4 + rng.Float64()*4
			far := 2 + rng.Float64() // d ∈ [2R, 3R)
			if i%2 == 1 {
				far = 1/tableMaxW + (2-1/tableMaxW)*rng.Float64() // d ∈ [R/tableMaxW, 2R)
			}
			c := geom.PolarUnit(rng.Float64() * 2 * math.Pi).Scale(r * far)
			objs[j] = uncertain.New(int32(j), geom.Circle{C: c, R: r}, pdf)
		}
		cases[i] = kcase{objs, geom.Pt(0, 0)}
	}
	var lens Scratch
	tabled := Scratch{forceTables: true}
	pass := func(sc *Scratch) func() error {
		return func() error {
			for _, c := range cases {
				ProbsScratch(c.objs, c.q, sc)
			}
			return nil
		}
	}
	pass(&tabled)() // build the table outside the timing
	if r := perfgate.Ratio(t, pass(&lens), pass(&tabled)); r < minTableRatio {
		t.Errorf("the table path is %.2fx the lens path, want ≥ %.1fx", r, minTableRatio)
	}
}
