package prob

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"uvdiagram/internal/geom"
	"uvdiagram/internal/uncertain"
)

// parityTol returns the |ΔF| bar for object o seen from q; a point
// object's CDF is a step in both kernels and keeps the flat bar.
func parityTol(o uncertain.Object, q geom.Point) float64 {
	if cond := q.Dist(o.Region.C) / o.Region.R; o.Region.R > 0 && cond > parityCond {
		return parityTolF * cond / parityCond
	}
	return parityTolF
}

// parityPDF draws one of the pdf shapes the kernel must agree on:
// Gaussian, uniform, spiky (one non-zero bin) and gapped (some zero
// bins), at 1, 7, 20 or 50 bins.
func parityPDF(rng *rand.Rand) *uncertain.HistogramPDF {
	bins := []int{1, 7, 20, 50}[rng.Intn(4)]
	switch rng.Intn(4) {
	case 0:
		return uncertain.Gaussian(bins, 0.1+rng.Float64())
	case 1:
		return uncertain.Uniform(bins)
	}
	spike := rng.Intn(bins)
	return spikedPDF(rng, bins, spike, rng.Intn(2) == 0)
}

// spikedPDF is parityPDF's spiky pdf, all its mass in bin spike, or its
// gapped one: every other bin may carry mass too, and one bin is empty.
func spikedPDF(rng *rand.Rand, bins, spike int, gapped bool) *uncertain.HistogramPDF {
	w := make([]float64, bins)
	w[spike] = 1
	if gapped {
		for k := range w {
			if rng.Intn(2) == 0 {
				w[k] = rng.Float64()
			}
		}
		w[rng.Intn(bins)] = 0
		w[rng.Intn(bins)] += 0.5
	}
	pdf, err := uncertain.NewHistogramPDF(w)
	if err != nil {
		panic(err)
	}
	return pdf
}

// parityShapes is one pdf of every parityPDF shape — Gaussian, uniform,
// spiky and gapped at 1, 7, 20 and 50 bins — built once, so the table
// tests build one table per shape.
var parityShapes = sync.OnceValue(func() []*uncertain.HistogramPDF {
	rng := rand.New(rand.NewSource(20100303))
	var shapes []*uncertain.HistogramPDF
	for _, bins := range []int{1, 7, 20, 50} {
		shapes = append(shapes,
			uncertain.Gaussian(bins, 0.1+rng.Float64()),
			uncertain.Uniform(bins),
			spikedPDF(rng, bins, rng.Intn(bins), false),
			spikedPDF(rng, bins, rng.Intn(bins), true))
	}
	return shapes
})

// logUniform draws from [lo, hi] uniformly in the exponent.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// parityFamilies names the families of parityCase, in its switch order.
var parityFamilies = []string{
	"generic", "q-at-centre", "concentric", "coincident", "zero-radius",
	"shared-distmin", "grid-tangent", "far-small", "touching-support",
}

// parityCase builds one seeded configuration of 1–8 candidates around a
// query point. The generic family draws radii from 0 to 1e3 and centre
// distances from 0 to 1e5; the others put the degenerate geometry in by
// construction.
func parityCase(rng *rand.Rand, family int) ([]uncertain.Object, geom.Point) {
	n := 1 + rng.Intn(8)
	span := logUniform(rng, 1, 1e5)
	radius := func() float64 {
		if rng.Intn(12) == 0 {
			return 0
		}
		return logUniform(rng, 1e-3, 1e3)
	}
	q := geom.Pt((rng.Float64()-0.5)*span, (rng.Float64()-0.5)*span)
	objs := make([]uncertain.Object, n)
	for i := range objs {
		c := geom.Pt((rng.Float64()-0.5)*span, (rng.Float64()-0.5)*span)
		objs[i] = uncertain.New(int32(i), geom.Circle{C: c, R: radius()}, parityPDF(rng))
	}
	switch family {
	case 1: // q at an object centre: d = 0
		q = objs[rng.Intn(n)].Region.C
	case 2: // concentric candidates of different radii
		for i := 1; i < n; i++ {
			objs[i].Region.C = objs[0].Region.C
		}
	case 3: // coincident centres and equal radii, q possibly on them too
		for i := 1; i < n; i++ {
			objs[i].Region = objs[0].Region
		}
		if rng.Intn(3) == 0 {
			q = objs[0].Region.C
		}
	case 4: // zero-radius (point) objects, some coincident
		for i := range objs {
			if rng.Intn(2) == 0 {
				objs[i].Region.R = 0
			}
			if i > 0 && rng.Intn(4) == 0 {
				objs[i].Region.C = objs[i-1].Region.C
			}
		}
	case 5: // every distmin equals the support's lo, on integers
		q = geom.Pt(0, 0)
		lo := float64(rng.Intn(50))
		for i := range objs {
			r := float64(1 + rng.Intn(40))
			objs[i].Region = geom.Circle{C: axisPoint(i, lo+r), R: r}
		}
	case 6: // the integration grid lands on ring tangencies: q sits
		// inside object 0 with distmax 200, so h = 1 and every grid
		// radius is an integer; the others have integer centre
		// distances and 20-bin radius 20 or 40, so r = d ± R·j/20 holds
		// exactly on the grid.
		q = geom.Pt(0, 0)
		objs[0].Region = geom.Circle{C: geom.Pt(80, 0), R: 120}
		for i := 1; i < n; i++ {
			objs[i].Region = geom.Circle{C: axisPoint(i, float64(rng.Intn(150))), R: float64(20 * (1 + rng.Intn(2)))}
			objs[i].PDF = uncertain.Gaussian(20, 0.1+rng.Float64())
		}
	case 7: // small regions far away: d/R up to 1e8
		for i := range objs {
			objs[i].Region.R = logUniform(rng, 1e-3, 1)
		}
	case 8: // object i+1's distmin is object 0's distmax, to the ulp on
		// either side: the edge of the answer-set predicate and of the
		// integration support
		q = geom.Pt(0, 0)
		r0 := float64(1 + rng.Intn(30))
		d0 := float64(rng.Intn(60))
		objs[0].Region = geom.Circle{C: geom.Pt(d0, 0), R: r0}
		for i := 1; i < n; i++ {
			r := float64(1 + rng.Intn(30))
			d := d0 + r0 + r
			switch rng.Intn(3) {
			case 0:
				d = math.Nextafter(d, 0)
			case 1:
				d = math.Nextafter(d, math.Inf(1))
			}
			objs[i].Region = geom.Circle{C: axisPoint(i, d), R: r}
		}
	}
	return objs, q
}

// axisPoint puts a point at distance d from the origin on one of the
// four axis directions, so integer distances stay exact.
func axisPoint(i int, d float64) geom.Point {
	switch i % 4 {
	case 0:
		return geom.Pt(d, 0)
	case 1:
		return geom.Pt(0, d)
	case 2:
		return geom.Pt(-d, 0)
	}
	return geom.Pt(0, -d)
}

// parityRadii returns the radii at which one object's CDF is compared:
// a spread over its distance range, and every external (r = d − R_j)
// and internal (r = d + R_j, r = R_j − d) tangency with every ring
// boundary j = 1…n to the ulp on both sides — exactly where the sweep
// kernel's ring classification (apart, crossing, inside, around) flips.
func parityRadii(rng *rand.Rand, o uncertain.Object, q geom.Point) []float64 {
	lo, hi := o.DistMin(q), o.DistMax(q)
	rs := []float64{lo, hi, math.Nextafter(lo, hi), math.Nextafter(hi, lo)}
	for i := 0; i < 4; i++ {
		rs = append(rs, lo+(hi-lo)*rng.Float64())
	}
	d := q.Dist(o.Region.C)
	n := o.PDF.Bins()
	for j := 1; j <= n; j++ {
		rj := o.Region.R * float64(j) / float64(n)
		for _, r := range []float64{d - rj, d + rj, rj - d} {
			if r > 0 {
				rs = append(rs, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
			}
		}
	}
	return rs
}

// TestKernelParity is the stated bound between the sweep kernel and the
// reference it replaced: over ≥ 20 000 seeded configurations of every
// family, |ΔF| ≤ parityTol and |Δp| ≤ parityTolP (or the worst
// answer-set object's parityTol where that is larger). The measured
// maxima are logged per family, overall and over the well-conditioned
// (d/R ≤ parityCond) part where the flat bars apply.
//
// Each configuration is integrated once more with its pdfs swapped for
// parityShapes ones, through the lens path and with tables forced on
// for every object they can serve: the two must agree to the same |Δp|
// bar. The families run in parallel, each on its own generator and
// scratches, so the sample is the same however they are scheduled.
func TestKernelParity(t *testing.T) {
	perFamily := 2500
	if testing.Short() || raceEnabled {
		perFamily = 250
	}
	for family, name := range parityFamilies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			kernelParityFamily(t, family, perFamily)
		})
	}
}

func kernelParityFamily(t *testing.T, family, perFamily int) {
	name := parityFamilies[family]
	var sc, lens, tabled Scratch
	tabled.forceTables = true
	var rsc refScratch
	rng := rand.New(rand.NewSource(20100301 + int64(family)))
	pick := rand.New(rand.NewSource(20100311 + int64(family)))
	shapes := parityShapes()
	var swapped []uncertain.Object
	var maxF, maxP, flatF, flatP, maxT float64
	for c := 0; c < perFamily; c++ {
		objs, q := parityCase(rng, family)
		tolP := parityTolP
		for _, o := range objs {
			tolF := parityTol(o, q)
			for _, r := range parityRadii(rng, o, q) {
				got, want := DistanceCDF(o, q, r), refDistanceCDF(o, q, r)
				df := math.Abs(got - want)
				if math.IsNaN(got) || df > tolF {
					t.Errorf("%s case %d: F(%v) = %v, reference %v (Δ %.3g > %.3g) for %v bins=%d at q=%v",
						name, c, r, got, want, df, tolF, o.Region, o.PDF.Bins(), q)
				}
				maxF = math.Max(maxF, df)
				if tolF == parityTolF {
					flatF = math.Max(flatF, df)
				}
			}
		}
		got := ProbsScratch(objs, q, &sc)
		want := refProbs(objs, q, &rsc)
		for i := range want {
			if want[i] > 0 {
				tolP = math.Max(tolP, parityTol(objs[i], q))
			}
		}
		for i := range want {
			dp := math.Abs(got[i] - want[i])
			if math.IsNaN(got[i]) || dp > tolP {
				t.Errorf("%s case %d: p[%d] = %v, reference %v (Δ %.3g > %.3g)", name, c, i, got[i], want[i], dp, tolP)
			}
			maxP = math.Max(maxP, dp)
			if tolP == parityTolP {
				flatP = math.Max(flatP, dp)
			}
		}

		swapped = append(swapped[:0], objs...)
		for i := range swapped {
			swapped[i].PDF = shapes[pick.Intn(len(shapes))]
		}
		want = ProbsScratch(swapped, q, &lens)
		got = ProbsScratch(swapped, q, &tabled)
		tolP = parityTolP
		for i := range want {
			if want[i] > 0 {
				tolP = math.Max(tolP, parityTol(swapped[i], q))
			}
		}
		for i := range want {
			dp := math.Abs(got[i] - want[i])
			if math.IsNaN(got[i]) || dp > tolP {
				t.Errorf("%s case %d, tables forced: p[%d] = %v, lens path %v (Δ %.3g > %.3g)", name, c, i, got[i], want[i], dp, tolP)
			}
			maxT = math.Max(maxT, dp)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%-16s %d cases: max |ΔF| = %.3g (%.3g at d/R ≤ %d), max |Δp| = %.3g (%.3g under the flat bar), tables forced max |Δp| = %.3g",
		name, perFamily, maxF, flatF, parityCond, maxP, flatP, maxT)
}

// TestProbsMatchMonteCarloShapes is TestProbsMatchMonteCarlo over the
// pdf shapes of parityPDF — spiky, gapped, uniform and Gaussian at 1 to
// 50 bins — on overlapping neighbours. MonteCarloProbs shares nothing
// with the integration but the sampler. Its estimate of p over n draws
// has σ = √(p(1−p)/n); the bar is 5σ (one false alarm in ~1.7 million
// comparisons; this test makes ~160) plus 1e-3 for the quadrature on the
// discontinuous densities.
func TestProbsMatchMonteCarloShapes(t *testing.T) {
	const draws = 60000
	rng := rand.New(rand.NewSource(20100302))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		objs := make([]uncertain.Object, 2+rng.Intn(4))
		for i := range objs {
			c := geom.Circle{C: geom.Pt(rng.Float64()*12, rng.Float64()*12), R: 1 + rng.Float64()*5}
			objs[i] = uncertain.New(int32(i), c, parityPDF(rng))
		}
		q := geom.Pt(rng.Float64()*12, rng.Float64()*12)
		ana := Probs(objs, q)
		mc := MonteCarloProbs(objs, q, draws, int64(trial)+500)
		for i := range objs {
			sigma := math.Sqrt(ana[i] * (1 - ana[i]) / draws)
			diff := math.Abs(ana[i] - mc[i])
			if diff > 5*sigma+1e-3 {
				t.Errorf("trial %d obj %d (%d bins): integrated %v vs MC %v (σ = %.3g)",
					trial, i, objs[i].PDF.Bins(), ana[i], mc[i], sigma)
			}
			if sigma > 0 {
				worst = math.Max(worst, diff/sigma)
			}
		}
	}
	t.Logf("worst |integrated − MC| = %.2fσ", worst)
}

// TestKernelRatio is the blocking, host-independent perf gate of the
// kernel: the sweep kernel must integrate the same 256 seeded
// 2–6-candidate cases at least minKernelRatio times faster than the
// reference, both timed in this process, interleaved, best of 5.
func TestKernelRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: skipped under -short and -race")
	}
	const minKernelRatio = 2.5
	type kcase struct {
		objs []uncertain.Object
		q    geom.Point
	}
	rng := rand.New(rand.NewSource(20100301))
	cases := make([]kcase, 256)
	for i := range cases {
		// Overlapping paper-Gaussian neighbours, so every candidate is
		// in the answer set and the whole grid is integrated.
		objs := make([]uncertain.Object, 2+rng.Intn(5))
		for j := range objs {
			objs[j] = obj(int32(j), rng.Float64()*10, rng.Float64()*10, 4+rng.Float64()*4)
		}
		cases[i] = kcase{objs, geom.Pt(rng.Float64()*10, rng.Float64()*10)}
	}
	var sc Scratch
	var rsc refScratch
	pass := func(run func(kcase)) time.Duration {
		start := time.Now()
		for _, c := range cases {
			run(c)
		}
		return time.Since(start)
	}
	fast, ref := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 5; rep++ {
		if d := pass(func(c kcase) { ProbsScratch(c.objs, c.q, &sc) }); d < fast {
			fast = d
		}
		if d := pass(func(c kcase) { refProbs(c.objs, c.q, &rsc) }); d < ref {
			ref = d
		}
	}
	ratio := float64(ref) / float64(fast)
	t.Logf("reference %v, sweep %v per %d cases: %.2fx", ref, fast, len(cases), ratio)
	if ratio < minKernelRatio {
		t.Errorf("sweep kernel is %.2fx the reference, want ≥ %.1fx", ratio, minKernelRatio)
	}
}
