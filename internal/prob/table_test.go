package prob

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/perfgate"
	"uvdiagram/internal/uncertain"
)

// armedTable returns o's sweep from q armed through its pdf's table,
// or nil where no table serves it (d < 2R, a point object).
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
// lens path for every parityPDF shape, at d/R from 2 (to the ulp) up to
// 1e8: at random radii, at every ring tangency and every cell edge to
// the ulp on both sides. It logs the largest distance to farCDF, the
// function the table fits.
func TestCDFTableParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20100304))
	geometries := 60
	if testing.Short() || raceEnabled {
		geometries = 12
	}
	for _, pdf := range parityShapes() {
		rs := unitRings(pdf)
		var worst, worstFit float64
		evals := 0
		for g := 0; g < geometries; g++ {
			R := logUniform(rng, 1e-3, 1e3)
			w := logUniform(rng, 1e-8, tableMaxW)
			switch g {
			case 0:
				w = tableMaxW
			case 1:
				w = math.Nextafter(tableMaxW, 0)
			case 2:
				w = 1e-8
			}
			q := geom.Pt((rng.Float64()-0.5)*1e4, (rng.Float64()-0.5)*1e4)
			o := uncertain.New(0, geom.Circle{C: geom.Pt(q.X+R/w, q.Y), R: R}, pdf)
			if g%2 == 1 { // off the axis, where d carries rounding
				phi := rng.Float64() * 2 * math.Pi
				o.Region.C = q.Add(geom.PolarUnit(phi).Scale(R / w))
			}
			s := armedTable(o, q)
			if s == nil {
				continue // R/d rounded above ½
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
						pdf.Bins(), R, s.d/R, r, got, want, df, tol)
				} else if tol == parityTolF {
					worst = math.Max(worst, df)
				}
				if r > s.min && r < s.max { // inside, where the table answers
					worstFit = math.Max(worstFit, math.Abs(got-farCDF(rs, (r-s.d)/s.R, s.R/s.d)))
				}
				evals++
			}
		}
		t.Logf("%2d bins %v…: %d evaluations, max |ΔF| = %.3g against the lens path at d/R ≤ %d, %.3g against farCDF",
			pdf.Bins(), pdf.Weights()[:1], evals, worst, parityCond, worstFit)
	}
}

// FuzzCDFTable holds the table of 1–64 fuzzed bars to parityTol against
// the lens path at a fuzzed u ∈ (−1, 1) and w = R/d ∈ [1e-8, ½].
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
		w := 1e-8 * math.Pow(tableMaxW/1e-8, math.Mod(math.Abs(wf), 1))
		const R = 1.0
		o := uncertain.New(0, geom.Circle{C: geom.Pt(R/w, 0), R: R}, pdf)
		q := geom.Pt(0, 0)
		s := reach(o, q)
		if !(R/s.d <= tableMaxW) {
			return // R/d rounded above ½
		}
		// Fit only the cell and panel the evaluation reads: the cell of u
		// as tableCDF recomputes it from r.
		tab := newTable(pdf.Bins())
		n := tab.cells()
		s.armTable(o, tab, make([]float64, tableW), make([]float64, n*tableT), make([]bool, n))
		r := s.d + u*R
		ur := (r - s.d) / R
		c := tab.cell(math.Abs(ur))
		if ur > 0 {
			c += tab.side + 1
		}
		tab.fit(unitRings(pdf), c, s.panel)
		got, want := s.cdf(r), DistanceCDF(o, q, r)
		if df := math.Abs(got - want); math.IsNaN(got) || df > parityTol(o, q) {
			t.Fatalf("%d bars %v, d/R = %v: table F(%v) = %v, lens path %v (Δ %.3g > %.3g)",
				len(weights), weights, s.d, r, got, want, df, parityTol(o, q))
		}
	})
}

// TestCDFTableConcurrentBuild arms one shared, never-armed pdf from
// many goroutines at once: the lazy build is exactly-once, so all of
// them get the one table, and the same probabilities.
func TestCDFTableConcurrentBuild(t *testing.T) {
	const goroutines = 16
	pdf := uncertain.Gaussian(uncertain.DefaultBins, 1.0/3)
	objs := []uncertain.Object{
		uncertain.New(0, geom.Circle{C: geom.Pt(100, 0), R: 10}, pdf),
		uncertain.New(1, geom.Circle{C: geom.Pt(0, 104), R: 12}, pdf),
	}
	q := geom.Pt(0, 0)
	tabs := make([]*cdfTable, goroutines)
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
			if sc.sw[0].tab != sc.sw[1].tab {
				t.Errorf("goroutine %d: one pdf armed with two tables", g)
			}
			tabs[g] = sc.sw[0].tab
		}()
	}
	close(start)
	wg.Wait()
	for g := range tabs {
		if tabs[g] == nil || tabs[g] != tabs[0] {
			t.Fatalf("goroutine %d got table %p, goroutine 0 %p", g, tabs[g], tabs[0])
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
}

// TestCDFTableRatio is the blocking, host-independent perf gate of the
// table: with tables on, ProbsScratch must integrate 256 seeded cases
// at least minTableRatio times faster than through the lens path, both
// timed in CPU time in this process, interleaved (perfgate.Ratio). The
// cases are TestKernelRatio's — its seed, its 2–6 overlapping
// paper-Gaussian candidates of radius 4–8 — placed as a served answer
// set is, each region 2–3 radii from q: TestKernelRatio's own put q
// inside or beside every region, where d < 2R and no table applies.
// The bound sits between the ratio measured (2.9–3.6) and the ratio
// with the table path's work doubled (1.5–1.6).
func TestCDFTableRatio(t *testing.T) {
	perfgate.Skip(t)
	const minTableRatio = 2.5
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
			c := geom.PolarUnit(rng.Float64() * 2 * math.Pi).Scale(r * (2 + rng.Float64()))
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
